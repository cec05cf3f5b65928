//! The query planner: classifies each conjunct of a selection predicate
//! as index-satisfiable, constraint-pruned, or residual.
//!
//! The paper's §1 payoff is that derived global constraints optimise
//! queries against the integrated view. Two forms of constraint pruning
//! appear here:
//!
//! * **implied-empty** — the whole predicate contradicts the known
//!   constraints it forces two-valued; the query is answered empty
//!   without touching an object (decided by the
//!   [`crate::optimize::Optimizer`] before planning);
//! * **implied-true** — a conjunct is entailed by the constraints and can
//!   be dropped from evaluation. Soundness under three-valued semantics
//!   requires (a) the entailment to use only premises over the conjunct's
//!   own paths ([`PremiseSet::entails`]) and (b) every such path to be
//!   covered by a remaining index conjunct, whose evaluation excludes
//!   objects with that path null.
//!
//! Both rest on one path-subset rule, stated on [`PremiseSet`]: a
//! premise joins a proof only where all of its paths are known non-null.
//!
//! Index-satisfiable conjuncts execute as posting-list intersections
//! (hash postings for equality/membership, sorted-index ranges for
//! comparisons); whatever remains is evaluated per candidate object.
//!
//! On top of the classification sits the **cost model**
//! ([`build_costed_plan`]): per-`(class, attr)` statistics estimate the
//! cardinality of every index atom *at plan time*, the kept atoms are
//! ordered cheapest-first for the batch intersection, and atoms whose
//! estimated selectivity is poor are demoted to residual evaluation —
//! falling back to a plain extension scan when no atom prunes enough to
//! pay for itself. The decision is exposed through
//! [`crate::optimize::Optimizer::explain`].

use std::ops::Bound;
use std::sync::Arc;

use interop_constraint::solve::{selectivity_hint, PremiseSet, TypeEnv};
use interop_constraint::{CmpOp, Expr, Formula, Path};
use interop_model::{AttrName, ClassName, Value, R64};

use crate::index::canon_key;
use crate::stats::AttrStats;

/// An atom answerable from a secondary index.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexAtom {
    /// `attr = const`: one hash posting list.
    Eq {
        /// The indexed attribute.
        attr: AttrName,
        /// The canonicalised probe value.
        key: Value,
    },
    /// `attr in {consts}`: union of hash posting lists.
    In {
        /// The indexed attribute.
        attr: AttrName,
        /// Canonicalised, deduplicated probe values.
        keys: Vec<Value>,
    },
    /// `attr op numeric-const` for an ordering `op`: a sorted-index range.
    Range {
        /// The indexed attribute.
        attr: AttrName,
        /// Lower bound.
        lo: Bound<R64>,
        /// Upper bound.
        hi: Bound<R64>,
    },
}

impl IndexAtom {
    /// The attribute the atom probes.
    pub fn attr(&self) -> &AttrName {
        match self {
            IndexAtom::Eq { attr, .. }
            | IndexAtom::In { attr, .. }
            | IndexAtom::Range { attr, .. } => attr,
        }
    }
}

/// Splits a predicate into top-level conjuncts (`And` flattens; anything
/// else is a single conjunct).
fn conjuncts(pred: &Formula) -> Vec<&Formula> {
    match pred {
        Formula::And(fs) => fs.iter().collect(),
        other => vec![other],
    }
}

/// Recognises an index-satisfiable atom. Only single-segment paths are
/// indexable (multi-segment paths navigate references and need the
/// object graph).
fn index_atom(f: &Formula) -> Option<IndexAtom> {
    fn single(p: &Path) -> Option<&AttrName> {
        if p.len() == 1 {
            p.head()
        } else {
            None
        }
    }
    match f {
        Formula::Cmp(Expr::Attr(p), op, Expr::Const(v)) => cmp_atom(single(p)?, *op, v),
        Formula::Cmp(Expr::Const(v), op, Expr::Attr(p)) => cmp_atom(single(p)?, op.flip(), v),
        Formula::In(Expr::Attr(p), set) => {
            let attr = single(p)?;
            let mut keys: Vec<Value> = set.iter().filter_map(canon_key).collect();
            keys.sort_unstable();
            keys.dedup();
            // An all-null (or empty) set still plans as an empty posting:
            // the conjunct can never evaluate True.
            Some(IndexAtom::In {
                attr: attr.clone(),
                keys,
            })
        }
        _ => None,
    }
}

fn cmp_atom(attr: &AttrName, op: CmpOp, v: &Value) -> Option<IndexAtom> {
    match op {
        CmpOp::Eq => Some(IndexAtom::Eq {
            attr: attr.clone(),
            key: canon_key(v)?,
        }),
        CmpOp::Lt => Some(IndexAtom::Range {
            attr: attr.clone(),
            lo: Bound::Unbounded,
            hi: Bound::Excluded(v.as_num()?),
        }),
        CmpOp::Le => Some(IndexAtom::Range {
            attr: attr.clone(),
            lo: Bound::Unbounded,
            hi: Bound::Included(v.as_num()?),
        }),
        CmpOp::Gt => Some(IndexAtom::Range {
            attr: attr.clone(),
            lo: Bound::Excluded(v.as_num()?),
            hi: Bound::Unbounded,
        }),
        CmpOp::Ge => Some(IndexAtom::Range {
            attr: attr.clone(),
            lo: Bound::Included(v.as_num()?),
            hi: Bound::Unbounded,
        }),
        // `<>` needs a complement, which posting lists cannot express
        // (and is True even for incomparable variants): residual.
        CmpOp::Ne => None,
    }
}

/// The index-answerable atoms among `pred`'s top-level conjuncts, in
/// conjunct order. Pure shape classification (the same recogniser
/// [`build_costed_plan`] uses) with no store access — the static analyzer's
/// plan-lint hook: a predicate yielding no atoms here always executes as
/// a full scan, whatever the data.
pub fn indexable_atoms(pred: &Formula) -> Vec<IndexAtom> {
    conjuncts(pred)
        .iter()
        .filter_map(|f| index_atom(f))
        .collect()
}

/// Static composite-pair gain estimate from two equality atoms'
/// selectivity fractions (`interop_constraint::solve::selectivity_hint`).
/// Mirrors the admission gate in `Store::note_composite_candidate` under
/// attribute independence, with the extension size cancelled out:
/// `joint = s_a·s_b·N`, `min_single = min(s_a, s_b)·N`, so the gain
/// factor is `min(s_a, s_b) / (s_a·s_b)`. A pair whose hint reaches
/// [`crate::store::CompositePolicy::min_gain`] would qualify for
/// admission on every sighting.
pub fn composite_gain_hint(sel_a: f64, sel_b: f64) -> f64 {
    let joint = (sel_a * sel_b).max(f64::EPSILON);
    sel_a.min(sel_b).max(0.0) / joint
}

/// A source of per-`(class, attr)` statistics for plan-time costing —
/// implemented by [`crate::store::Store`] (which builds them lazily) and
/// by in-memory fixtures in tests. The two composite hooks drive the
/// store's lazy composite-index admission; their defaults make a plain
/// statistics fixture composite-free.
pub trait StatsSource {
    /// Statistics over `class`'s extension for `attr`.
    fn attr_stats(&self, class: &ClassName, attr: &AttrName) -> Arc<AttrStats>;

    /// Reports that a plan kept two equality atoms over the (sorted,
    /// distinct) attribute `pair` whose joint estimate is `joint_est`
    /// and whose cheaper single-atom estimate is `min_single_est`. The
    /// source applies its admission policy (recurrence + gain factor);
    /// the planner reports unconditionally.
    fn note_composite_candidate(
        &self,
        _class: &ClassName,
        _pair: (&AttrName, &AttrName),
        _joint_est: usize,
        _min_single_est: usize,
    ) {
    }

    /// True when a composite index over `pair` is admitted for `class`
    /// — the planner then replaces the two-way intersection with one
    /// composite probe.
    fn composite_admitted(&self, _class: &ClassName, _pair: (&AttrName, &AttrName)) -> bool {
        false
    }
}

/// A composite pair probe: one lookup in a materialised
/// [`crate::index::CompositeIndex`] answering `attr_a = x ∧ attr_b = y`.
/// The attribute pair is canonicalised (sorted ascending) so the probe,
/// the admission sketch, and the store's index cache all agree on one
/// key per unordered pair; the values are canonical per
/// [`crate::index::canon_key`].
#[derive(Clone, Debug, PartialEq)]
pub struct CompositeProbe {
    attrs: (AttrName, AttrName),
    keys: (Value, Value),
}

impl CompositeProbe {
    /// Builds a probe from two `(attr, canonical key)` pairs, sorting
    /// the components so `attrs.0 < attrs.1`.
    pub fn new(a: AttrName, ka: Value, b: AttrName, kb: Value) -> Self {
        if a <= b {
            CompositeProbe {
                attrs: (a, b),
                keys: (ka, kb),
            }
        } else {
            CompositeProbe {
                attrs: (b, a),
                keys: (kb, ka),
            }
        }
    }

    /// The probed attribute pair, ascending.
    pub fn attr_pair(&self) -> (&AttrName, &AttrName) {
        (&self.attrs.0, &self.attrs.1)
    }

    /// The canonical probe values, aligned with [`CompositeProbe::attr_pair`].
    pub fn key_pair(&self) -> (&Value, &Value) {
        (&self.keys.0, &self.keys.1)
    }
}

/// Below this estimated cardinality an index atom is always kept:
/// intersecting a short posting list is cheaper than any bookkeeping
/// that would decide otherwise.
pub const KEEP_FLOOR: usize = 64;

/// An index atom is *demoted* to residual evaluation when its estimated
/// cardinality exceeds both [`KEEP_FLOOR`] and this fraction of the
/// extension — resolving and intersecting most of the extension costs
/// more than evaluating the conjunct on whatever the other steps leave.
pub const POOR_SELECTIVITY: f64 = 0.5;

/// How one conjunct participates in a costed plan.
#[derive(Clone, Debug)]
pub enum CostedRole {
    /// Intersected as a posting list, `order`-th cheapest-first.
    Index {
        /// The probe.
        atom: IndexAtom,
        /// Estimated matching rows.
        est: usize,
        /// Position in the execution order (0 = first intersected).
        order: usize,
    },
    /// Index-satisfiable but too unselective: evaluated per candidate.
    Demoted {
        /// The recognised (unused) probe.
        atom: IndexAtom,
        /// Estimated matching rows that caused the demotion.
        est: usize,
    },
    /// Not index-satisfiable: evaluated per candidate. `hint` is the
    /// domain-algebra selectivity prior, when one exists.
    Residual {
        /// Statistics-free selectivity prior from the attribute's typed
        /// domain ([`interop_constraint::solve::selectivity_hint`]).
        hint: Option<f64>,
    },
    /// Entailed by the constraints on every surviving candidate: dropped.
    ImpliedTrue,
    /// This equality atom and the one at conjunct `covers` are answered
    /// together by one admitted composite-index lookup, replacing their
    /// two-way posting intersection.
    Composite {
        /// The canonicalised pair probe.
        probe: CompositeProbe,
        /// Joint estimate (independence assumption) for the pair.
        est: usize,
        /// Position in the execution order (shared with kept atoms).
        order: usize,
        /// The single-atom estimates of the replaced intersection, in
        /// conjunct order (`self`, then `covers`).
        replaced: (usize, usize),
        /// Conjunct index of the partner equality the probe also answers.
        covers: usize,
    },
    /// Answered by the composite probe at conjunct `by`; not executed
    /// on its own.
    CoveredByComposite {
        /// Conjunct index of the [`CostedRole::Composite`] carrier.
        by: usize,
    },
}

/// One conjunct of a costed plan.
#[derive(Clone, Debug)]
pub struct CostedConjunct {
    /// The original conjunct.
    pub formula: Formula,
    /// Its role in execution.
    pub role: CostedRole,
}

/// A cost-based selection plan: classification plus plan-time estimates,
/// intersection order, and demotion decisions.
#[derive(Clone, Debug)]
pub struct CostedPlan {
    /// The queried class.
    pub class: ClassName,
    /// Extension size according to statistics (0 when no atom was costed
    /// — the plan then scans, and never consulted statistics).
    pub extension: usize,
    /// The conjuncts in original predicate order.
    pub conjuncts: Vec<CostedConjunct>,
}

/// One resolved probe of a costed plan's execution order: either a
/// single-attribute atom or an admitted composite pair lookup.
#[derive(Clone, Copy, Debug)]
pub enum ProbeStep<'a> {
    /// A single-attribute posting-list probe.
    Atom {
        /// The probe.
        atom: &'a IndexAtom,
        /// Its plan-time estimate.
        est: usize,
    },
    /// A composite pair probe answering two equality conjuncts at once.
    Composite {
        /// The pair probe.
        probe: &'a CompositeProbe,
        /// The joint plan-time estimate.
        est: usize,
    },
}

impl CostedPlan {
    /// The kept single-attribute index atoms with their estimates, in
    /// execution order. Composite probes are *not* included — use
    /// [`CostedPlan::probe_steps`] for the full execution order.
    pub fn index_steps(&self) -> Vec<(&IndexAtom, usize)> {
        let mut steps: Vec<(usize, &IndexAtom, usize)> = self
            .conjuncts
            .iter()
            .filter_map(|c| match &c.role {
                CostedRole::Index { atom, est, order } => Some((*order, atom, *est)),
                _ => None,
            })
            .collect();
        steps.sort_unstable_by_key(|(order, _, _)| *order);
        steps
            .into_iter()
            .map(|(_, atom, est)| (atom, est))
            .collect()
    }

    /// Every probe of the plan — kept atoms and composite pair lookups —
    /// in execution order (cheapest estimate first).
    pub fn probe_steps(&self) -> Vec<ProbeStep<'_>> {
        let mut steps: Vec<(usize, ProbeStep<'_>)> = self
            .conjuncts
            .iter()
            .filter_map(|c| match &c.role {
                CostedRole::Index { atom, est, order } => {
                    Some((*order, ProbeStep::Atom { atom, est: *est }))
                }
                CostedRole::Composite {
                    probe, est, order, ..
                } => Some((*order, ProbeStep::Composite { probe, est: *est })),
                _ => None,
            })
            .collect();
        steps.sort_unstable_by_key(|(order, _)| *order);
        steps.into_iter().map(|(_, s)| s).collect()
    }

    /// The admitted composite probe, when the plan uses one (at most one
    /// per plan — the two cheapest kept equality atoms).
    pub fn composite_probe(&self) -> Option<&CompositeProbe> {
        self.conjuncts.iter().find_map(|c| match &c.role {
            CostedRole::Composite { probe, .. } => Some(probe),
            _ => None,
        })
    }

    /// The conjuncts evaluated per candidate (plain residuals plus
    /// demoted atoms), in original order.
    pub fn residuals(&self) -> Vec<&Formula> {
        self.conjuncts
            .iter()
            .filter(|c| {
                matches!(
                    c.role,
                    CostedRole::Residual { .. } | CostedRole::Demoted { .. }
                )
            })
            .map(|c| &c.formula)
            .collect()
    }

    /// True when at least one posting list (single or composite) is
    /// probed.
    pub fn uses_index(&self) -> bool {
        self.conjuncts.iter().any(|c| {
            matches!(
                c.role,
                CostedRole::Index { .. } | CostedRole::Composite { .. }
            )
        })
    }

    /// `(index, demoted, residual, implied_true)` role counts. Both
    /// conjuncts answered by a composite probe count as index-answered.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for s in &self.conjuncts {
            match s.role {
                CostedRole::Index { .. }
                | CostedRole::Composite { .. }
                | CostedRole::CoveredByComposite { .. } => c.0 += 1,
                CostedRole::Demoted { .. } => c.1 += 1,
                CostedRole::Residual { .. } => c.2 += 1,
                CostedRole::ImpliedTrue => c.3 += 1,
            }
        }
        c
    }

    /// Estimated result rows under the independence assumption:
    /// `N · Π (estᵢ/N)` over the evaluated atoms, narrowed further by
    /// residual selectivity hints. `None` when nothing is intersected
    /// (scan).
    pub fn est_rows(&self) -> Option<usize> {
        if !self.uses_index() {
            return None;
        }
        let n = self.extension;
        if n == 0 {
            return Some(0);
        }
        let mut frac = 1.0f64;
        for c in &self.conjuncts {
            match &c.role {
                CostedRole::Index { est, .. }
                | CostedRole::Demoted { est, .. }
                // The joint estimate already composes both covered
                // conjuncts, so it contributes once and the covered
                // partner contributes nothing.
                | CostedRole::Composite { est, .. } => {
                    frac *= *est as f64 / n as f64;
                }
                CostedRole::Residual { hint: Some(h) } => frac *= h,
                CostedRole::Residual { hint: None }
                | CostedRole::ImpliedTrue
                | CostedRole::CoveredByComposite { .. } => {}
            }
        }
        Some((frac * n as f64).round() as usize)
    }
}

/// Builds a cost-based plan for `pred` over `class`, given the class's
/// prepared constraints and type environment. Each top-level conjunct is
/// classified as an index atom, a residual, or implied-true (entailed by
/// `premises`); statistics from `stats` then decide which index atoms
/// are worth intersecting and in what order (see [`KEEP_FLOOR`] /
/// [`POOR_SELECTIVITY`]). Implied-true conjuncts are dropped only when
/// every path is covered by an atom that *is* evaluated — kept or
/// demoted both qualify, since an atom excludes null-valued candidates
/// whether it runs as a posting list or as a residual check.
pub fn build_costed_plan(
    class: &ClassName,
    pred: &Formula,
    premises: &PremiseSet,
    env: &TypeEnv,
    stats: &dyn StatsSource,
) -> CostedPlan {
    let parts = conjuncts(pred);
    let atoms: Vec<Option<IndexAtom>> = parts.iter().map(|f| index_atom(f)).collect();
    let implied: Vec<bool> = parts.iter().map(|f| premises.entails(f, env)).collect();
    // Paths guaranteed non-null on every candidate: attributes of every
    // evaluated non-implied atom (an implied atom may itself be dropped,
    // so it cannot vouch for anyone else's coverage; kept and demoted
    // atoms both qualify — either way the atom's evaluation excludes
    // candidates where the attribute is null).
    let coverage: Vec<Path> = atoms
        .iter()
        .zip(&implied)
        .filter_map(|(atom, imp)| {
            if *imp {
                None
            } else {
                atom.as_ref().map(|a| Path::attr(a.attr().clone()))
            }
        })
        .collect();
    let dropped: Vec<bool> = parts
        .iter()
        .zip(&implied)
        .map(|(f, imp)| *imp && f.paths().iter().all(|p| coverage.contains(p)))
        .collect();
    // Estimate every atom that will be evaluated (dropped ones are never
    // probed; estimating them would build statistics for nothing).
    let mut extension = 0usize;
    let ests: Vec<Option<usize>> = atoms
        .iter()
        .zip(&dropped)
        .map(|(atom, drop)| match atom {
            Some(a) if !*drop => {
                let st = stats.attr_stats(class, a.attr());
                extension = st.total();
                Some(est_atom(&st, a))
            }
            _ => None,
        })
        .collect();
    // Keep an atom when it prunes: small in absolute terms, or below the
    // poor-selectivity fraction of the extension.
    let keep_bound = (POOR_SELECTIVITY * extension as f64) as usize;
    let keeps = |est: usize| est <= KEEP_FLOOR || est <= keep_bound;
    // Execution order of the kept atoms: cheapest first, ties broken by
    // attribute name then original position (stable and deterministic
    // for the Explain snapshots).
    let mut order_key: Vec<(usize, String, usize)> = Vec::new();
    for (i, (atom, est)) in atoms.iter().zip(&ests).enumerate() {
        if let (Some(atom), Some(est)) = (atom, est) {
            if keeps(*est) {
                order_key.push((*est, atom.attr().to_string(), i));
            }
        }
    }
    order_key.sort();
    // Composite pair detection: the two cheapest kept equality atoms
    // over *distinct* single attributes. Every sighting is reported to
    // the statistics source (whose sketch + gain policy decide
    // admission); once the pair is admitted, its two-way intersection is
    // replaced by one composite-index lookup carrying the joint
    // (independence-assumption) estimate.
    let mut composite: Option<(usize, usize, CompositeProbe, usize)> = None;
    let kept_eq: Vec<(usize, usize)> = order_key
        .iter()
        .filter(|&&(_, _, p)| matches!(atoms[p], Some(IndexAtom::Eq { .. })))
        .map(|&(est, _, p)| (est, p))
        .collect();
    if let Some(&(est_a, pos_a)) = kept_eq.first() {
        let attr_of = |p: usize| atoms[p].as_ref().expect("kept atom exists").attr();
        if let Some(&(est_b, pos_b)) = kept_eq[1..]
            .iter()
            .find(|&&(_, p)| attr_of(p) != attr_of(pos_a))
        {
            let key_of = |p: usize| match &atoms[p] {
                Some(IndexAtom::Eq { key, .. }) => key.clone(),
                _ => unreachable!("kept_eq holds Eq atoms only"),
            };
            let probe = CompositeProbe::new(
                attr_of(pos_a).clone(),
                key_of(pos_a),
                attr_of(pos_b).clone(),
                key_of(pos_b),
            );
            let joint = ((est_a as f64 * est_b as f64) / extension.max(1) as f64).round() as usize;
            stats.note_composite_candidate(class, probe.attr_pair(), joint, est_a.min(est_b));
            if stats.composite_admitted(class, probe.attr_pair()) {
                // The earlier conjunct carries the probe; the later one
                // is covered. The probe takes one order slot at the
                // joint estimate.
                let (first, second) = (pos_a.min(pos_b), pos_a.max(pos_b));
                order_key.retain(|&(_, _, p)| p != first && p != second);
                let pair_label = format!("{}+{}", probe.attrs.0, probe.attrs.1);
                order_key.push((joint, pair_label, first));
                order_key.sort();
                composite = Some((first, second, probe, joint));
            }
        }
    }
    let order_of = |i: usize| order_key.iter().position(|&(_, _, p)| p == i);
    // The role a conjunct gets when no composite replaces it.
    let plain_role = |i: usize, f: &Formula| -> CostedRole {
        if let Some(atom) = atoms[i].clone() {
            let est = ests[i].expect("evaluated atoms were estimated");
            match order_of(i) {
                Some(order) => CostedRole::Index { atom, est, order },
                None => CostedRole::Demoted { atom, est },
            }
        } else {
            CostedRole::Residual {
                hint: selectivity_hint(f, env),
            }
        }
    };

    let conjuncts = parts
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let role = if dropped[i] {
                CostedRole::ImpliedTrue
            } else if let Some((first, second, probe, joint)) = &composite {
                if i == *first {
                    CostedRole::Composite {
                        probe: probe.clone(),
                        est: *joint,
                        order: order_of(i).expect("composite probe is ordered"),
                        replaced: (
                            ests[*first].expect("kept atom was estimated"),
                            ests[*second].expect("kept atom was estimated"),
                        ),
                        covers: *second,
                    }
                } else if i == *second {
                    CostedRole::CoveredByComposite { by: *first }
                } else {
                    plain_role(i, f)
                }
            } else {
                plain_role(i, f)
            };
            CostedConjunct {
                formula: (*f).clone(),
                role,
            }
        })
        .collect();
    CostedPlan {
        class: class.clone(),
        extension,
        conjuncts,
    }
}

/// Estimated matching rows for one atom.
fn est_atom(st: &AttrStats, atom: &IndexAtom) -> usize {
    match atom {
        IndexAtom::Eq { key, .. } => st.est_eq(key),
        IndexAtom::In { keys, .. } => st.est_in(keys),
        IndexAtom::Range { lo, hi, .. } => st.est_range(*lo, *hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interop_model::Type;

    fn env() -> TypeEnv {
        TypeEnv::new()
            .with("rating", Type::Range(1, 10))
            .with("price", Type::Real)
            .with("isbn", Type::Str)
    }

    fn premises(constraints: &[Formula]) -> PremiseSet {
        PremiseSet::new(constraints, &env())
    }

    /// Plans `pred` against [`stats_1000`] with no known constraints.
    fn plan_1000(pred: &Formula) -> CostedPlan {
        build_costed_plan(
            &ClassName::new("Item"),
            pred,
            &PremiseSet::default(),
            &env(),
            &stats_1000(),
        )
    }

    #[test]
    fn equality_and_range_atoms_recognised() {
        let plan = plan_1000(&Formula::cmp("isbn", CmpOp::Eq, "x").and(Formula::cmp(
            "price",
            CmpOp::Le,
            10.0,
        )));
        assert_eq!(plan.counts(), (2, 0, 0, 0));
        assert!(plan.uses_index());
    }

    #[test]
    fn flipped_constant_side_normalises() {
        let f = Formula::Cmp(Expr::val(10.0), CmpOp::Ge, Expr::attr("price"));
        match &plan_1000(&f).conjuncts[0].role {
            CostedRole::Index {
                atom: IndexAtom::Range { lo, hi, .. },
                ..
            } => {
                assert_eq!(*lo, Bound::Unbounded);
                assert_eq!(*hi, Bound::Included(R64::new(10.0)));
            }
            other => panic!("expected range atom, got {other:?}"),
        }
    }

    #[test]
    fn ne_multiseg_and_disjunction_stay_residual() {
        let pred = Formula::cmp("isbn", CmpOp::Ne, "x")
            .and(Formula::cmp("publisher.name", CmpOp::Eq, "ACM"))
            .and(Formula::cmp("rating", CmpOp::Ge, 5i64).or(Formula::cmp("price", CmpOp::Le, 1.0)));
        let plan = plan_1000(&pred);
        assert_eq!(plan.counts(), (0, 0, 3, 0));
        assert!(!plan.uses_index());
        assert!(indexable_atoms(&pred).is_empty());
    }

    #[test]
    fn implied_conjunct_dropped_only_under_coverage() {
        let known = premises(&[Formula::cmp("rating", CmpOp::Ge, 5i64)]);
        let plan = |pred: &Formula| {
            build_costed_plan(&ClassName::new("Item"), pred, &known, &env(), &stats_1000())
        };
        // rating = 7 covers the rating path, so rating >= 2 (implied by
        // rating >= 5) is dropped.
        let covered =
            Formula::cmp("rating", CmpOp::Eq, 7i64).and(Formula::cmp("rating", CmpOp::Ge, 2i64));
        assert_eq!(plan(&covered).counts(), (1, 0, 0, 1));
        // Without a covering index conjunct the implied atom must stay
        // (here demoted, ~90% of the extension): a null rating would
        // otherwise be wrongly admitted.
        let uncovered =
            Formula::cmp("isbn", CmpOp::Eq, "x").and(Formula::cmp("rating", CmpOp::Ge, 2i64));
        assert_eq!(plan(&uncovered).counts(), (1, 1, 0, 0));
    }

    #[test]
    fn mutually_implied_conjuncts_do_not_vouch_for_each_other() {
        // Both conjuncts are implied by the constraint; if each covered
        // the other, a null rating object would slip through. Neither may
        // be dropped (both are evaluated, demoted for poor selectivity).
        let known = premises(&[Formula::cmp("rating", CmpOp::Ge, 5i64)]);
        let pred =
            Formula::cmp("rating", CmpOp::Ge, 4i64).and(Formula::cmp("rating", CmpOp::Ge, 3i64));
        let plan = build_costed_plan(
            &ClassName::new("Item"),
            &pred,
            &known,
            &env(),
            &stats_1000(),
        );
        assert_eq!(plan.counts(), (0, 2, 0, 0), "no self-vouching");
    }

    #[test]
    fn in_set_canonicalises_probe_keys() {
        let f = Formula::isin("rating", [Value::int(5), Value::real(5.0), Value::int(9)]);
        match &plan_1000(&f).conjuncts[0].role {
            CostedRole::Index {
                atom: IndexAtom::In { keys, .. },
                ..
            } => {
                assert_eq!(keys.len(), 2, "Int(5) and Real(5.0) collapse");
            }
            other => panic!("expected In atom, got {other:?}"),
        }
    }

    /// In-memory statistics fixture: each attribute's extension values.
    struct FakeStats {
        attrs: Vec<(AttrName, Arc<AttrStats>)>,
    }

    impl FakeStats {
        fn new(attrs: Vec<(&str, Vec<Value>)>) -> Self {
            FakeStats {
                attrs: attrs
                    .into_iter()
                    .map(|(a, vs)| (AttrName::new(a), Arc::new(AttrStats::build(vs.iter()))))
                    .collect(),
            }
        }
    }

    impl StatsSource for FakeStats {
        fn attr_stats(&self, _class: &ClassName, attr: &AttrName) -> Arc<AttrStats> {
            self.attrs
                .iter()
                .find(|(a, _)| a == attr)
                .map(|(_, st)| Arc::clone(st))
                .expect("fixture covers attr")
        }
    }

    /// 1000 objects: rating uniform over 1..=10, price uniform 0..100,
    /// isbn unique.
    fn stats_1000() -> FakeStats {
        let rating: Vec<Value> = (0..1000).map(|i| Value::int(1 + (i % 10))).collect();
        let price: Vec<Value> = (0..1000).map(|i| Value::real((i % 100) as f64)).collect();
        let isbn: Vec<Value> = (0..1000).map(|i| Value::str(format!("isbn-{i}"))).collect();
        FakeStats::new(vec![("rating", rating), ("price", price), ("isbn", isbn)])
    }

    #[test]
    fn costed_plan_orders_by_estimated_cardinality() {
        // price <= 4.5 (~50 rows) is cheaper than rating = 7 (100 rows),
        // and rating >= 3 (800 rows) is demoted outright.
        let pred = Formula::cmp("rating", CmpOp::Eq, 7i64)
            .and(Formula::cmp("price", CmpOp::Le, 4.5))
            .and(Formula::cmp("rating", CmpOp::Ge, 3i64));
        let plan = build_costed_plan(
            &ClassName::new("Item"),
            &pred,
            &PremiseSet::default(),
            &env(),
            &stats_1000(),
        );
        assert_eq!(plan.extension, 1000);
        assert_eq!(plan.counts(), (2, 1, 0, 0), "two kept, one demoted");
        let steps = plan.index_steps();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].0.attr().as_str(), "price");
        assert_eq!(steps[1].0.attr().as_str(), "rating");
        assert!(steps[0].1 <= steps[1].1, "cheapest first");
        assert_eq!(plan.residuals().len(), 1, "demoted atom re-checked");
    }

    #[test]
    fn poor_selectivity_everywhere_falls_back_to_scan() {
        let pred =
            Formula::cmp("rating", CmpOp::Ge, 2i64).and(Formula::cmp("price", CmpOp::Ge, 10.0));
        let plan = build_costed_plan(
            &ClassName::new("Item"),
            &pred,
            &PremiseSet::default(),
            &env(),
            &stats_1000(),
        );
        assert!(!plan.uses_index(), "both atoms ~90% of the extension");
        assert_eq!(plan.counts(), (0, 2, 0, 0));
        assert_eq!(plan.est_rows(), None);
        assert_eq!(plan.residuals().len(), 2);
    }

    #[test]
    fn keep_floor_protects_small_extensions() {
        // 20 objects: even an atom matching everything stays indexed —
        // intersecting 20 postings is cheaper than deciding not to.
        let rating: Vec<Value> = (0..20).map(|_| Value::int(7)).collect();
        let stats = FakeStats::new(vec![("rating", rating)]);
        let pred = Formula::cmp("rating", CmpOp::Eq, 7i64);
        let plan = build_costed_plan(
            &ClassName::new("Item"),
            &pred,
            &PremiseSet::default(),
            &env(),
            &stats,
        );
        assert!(plan.uses_index());
        assert_eq!(plan.index_steps()[0].1, 20);
    }

    #[test]
    fn demoted_atom_still_vouches_for_implied_coverage() {
        // rating >= 3 is implied by the constraint and its only path is
        // covered by the (demoted) rating-atom: it is dropped, and the
        // demoted atom is evaluated as a residual.
        let known = premises(&[Formula::cmp("rating", CmpOp::Ge, 5i64)]);
        let pred =
            Formula::cmp("rating", CmpOp::Ge, 6i64).and(Formula::cmp("rating", CmpOp::Ge, 3i64));
        let plan = build_costed_plan(
            &ClassName::new("Item"),
            &pred,
            &known,
            &env(),
            &stats_1000(),
        );
        let (index, demoted, residual, implied) = plan.counts();
        assert_eq!(implied, 1, "covered implied conjunct dropped");
        assert_eq!(index + demoted, 1);
        assert_eq!(residual, 0);
    }

    /// A statistics fixture with a real admission policy: qualifying
    /// pair sightings are counted and admitted after `admit_after`.
    struct CompositeStats {
        inner: FakeStats,
        admit_after: u32,
        min_gain: f64,
        seen: std::cell::RefCell<Vec<(String, u32)>>,
    }

    impl CompositeStats {
        fn new(inner: FakeStats, admit_after: u32, min_gain: f64) -> Self {
            CompositeStats {
                inner,
                admit_after,
                min_gain,
                seen: std::cell::RefCell::new(Vec::new()),
            }
        }
    }

    impl StatsSource for CompositeStats {
        fn attr_stats(&self, class: &ClassName, attr: &AttrName) -> Arc<AttrStats> {
            self.inner.attr_stats(class, attr)
        }

        fn note_composite_candidate(
            &self,
            _class: &ClassName,
            pair: (&AttrName, &AttrName),
            joint_est: usize,
            min_single_est: usize,
        ) {
            if (min_single_est as f64) < self.min_gain * joint_est.max(1) as f64 {
                return;
            }
            let key = format!("{}+{}", pair.0, pair.1);
            let mut seen = self.seen.borrow_mut();
            match seen.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => seen.push((key, 1)),
            }
        }

        fn composite_admitted(&self, _class: &ClassName, pair: (&AttrName, &AttrName)) -> bool {
            let key = format!("{}+{}", pair.0, pair.1);
            self.seen
                .borrow()
                .iter()
                .any(|(k, n)| *k == key && *n >= self.admit_after)
        }
    }

    /// 1000 objects, two hot equality attrs: rating 10 distinct values,
    /// shade 20 distinct values.
    fn pair_stats_1000() -> FakeStats {
        let rating: Vec<Value> = (0..1000).map(|i| Value::int(1 + (i % 10))).collect();
        let shade: Vec<Value> = (0..1000).map(|i| Value::int(i % 20)).collect();
        let price: Vec<Value> = (0..1000).map(|i| Value::real((i % 100) as f64)).collect();
        FakeStats::new(vec![("rating", rating), ("shade", shade), ("price", price)])
    }

    fn pair_pred() -> Formula {
        Formula::cmp("rating", CmpOp::Eq, 7i64).and(Formula::cmp("shade", CmpOp::Eq, 3i64))
    }

    #[test]
    fn composite_admitted_after_recurrences_and_replaces_intersection() {
        let stats = CompositeStats::new(pair_stats_1000(), 2, 2.0);
        let class = ClassName::new("Item");
        // rating = 7 est 100, shade = 3 est 50 → joint = 100·50/1000 = 5;
        // min_single 50 >= 2·5: qualifies.
        let p1 = build_costed_plan(&class, &pair_pred(), &PremiseSet::default(), &env(), &stats);
        assert!(p1.composite_probe().is_none(), "first sighting: isect");
        assert_eq!(p1.counts(), (2, 0, 0, 0));
        let p2 = build_costed_plan(&class, &pair_pred(), &PremiseSet::default(), &env(), &stats);
        let probe = p2.composite_probe().expect("second sighting admits");
        assert_eq!(
            probe.attr_pair().0.as_str(),
            "rating",
            "pair sorted ascending"
        );
        assert_eq!(probe.attr_pair().1.as_str(), "shade");
        assert_eq!(probe.key_pair().0, &Value::real(7.0), "canonical key");
        // Both conjuncts count as index-answered; one probe step total.
        assert_eq!(p2.counts(), (2, 0, 0, 0));
        let steps = p2.probe_steps();
        assert_eq!(steps.len(), 1);
        match steps[0] {
            ProbeStep::Composite { est, .. } => assert_eq!(est, 5),
            other => panic!("expected composite step, got {other:?}"),
        }
        assert!(p2.index_steps().is_empty(), "no single-atom steps remain");
        // The roles carry the replaced intersection and the partner.
        match &p2.conjuncts[0].role {
            CostedRole::Composite {
                est,
                replaced,
                covers,
                ..
            } => {
                assert_eq!(*est, 5);
                assert_eq!(*replaced, (100, 50));
                assert_eq!(*covers, 1);
            }
            other => panic!("expected composite carrier, got {other:?}"),
        }
        assert!(matches!(
            p2.conjuncts[1].role,
            CostedRole::CoveredByComposite { by: 0 }
        ));
        // est_rows counts the joint estimate exactly once.
        assert_eq!(p2.est_rows(), Some(5));
        assert!(p2.residuals().is_empty());
    }

    #[test]
    fn composite_orders_with_remaining_atoms_by_joint_estimate() {
        let stats = CompositeStats::new(pair_stats_1000(), 1, 1.0);
        let class = ClassName::new("Item");
        // A third kept atom (price <= 0.0, est 0) is cheaper than the
        // joint estimate (5): it must be intersected first.
        let pred = pair_pred().and(Formula::cmp("price", CmpOp::Le, 0.0));
        let _ = build_costed_plan(&class, &pred, &PremiseSet::default(), &env(), &stats);
        let plan = build_costed_plan(&class, &pred, &PremiseSet::default(), &env(), &stats);
        let steps = plan.probe_steps();
        assert_eq!(steps.len(), 2);
        assert!(
            matches!(steps[0], ProbeStep::Atom { .. }),
            "cheap range atom first"
        );
        assert!(matches!(steps[1], ProbeStep::Composite { .. }));
    }

    #[test]
    fn same_attribute_equalities_never_pair() {
        let stats = CompositeStats::new(pair_stats_1000(), 1, 0.0);
        let class = ClassName::new("Item");
        let pred =
            Formula::cmp("rating", CmpOp::Eq, 7i64).and(Formula::cmp("rating", CmpOp::Eq, 8i64));
        for _ in 0..3 {
            let plan = build_costed_plan(&class, &pred, &PremiseSet::default(), &env(), &stats);
            assert!(plan.composite_probe().is_none());
        }
        assert!(stats.seen.borrow().is_empty(), "no candidate reported");
    }

    #[test]
    fn range_atoms_do_not_form_composites() {
        let stats = CompositeStats::new(pair_stats_1000(), 1, 0.0);
        let class = ClassName::new("Item");
        let pred =
            Formula::cmp("rating", CmpOp::Eq, 7i64).and(Formula::cmp("price", CmpOp::Le, 30.0));
        for _ in 0..3 {
            let plan = build_costed_plan(&class, &pred, &PremiseSet::default(), &env(), &stats);
            assert!(plan.composite_probe().is_none(), "needs two Eq atoms");
        }
    }

    #[test]
    fn poor_gain_pair_is_never_reported() {
        // price = 42 est ~10, rating = 7 est 100 → joint = 1; with
        // min_gain 2.0 the cheaper atom (10) clears 2·1, so swap in a
        // pair where it does not: rating = 7 (100) with shade = 3 (50)
        // at min_gain 20 → 50 < 20·5.
        let stats = CompositeStats::new(pair_stats_1000(), 1, 20.0);
        let class = ClassName::new("Item");
        for _ in 0..3 {
            let plan =
                build_costed_plan(&class, &pair_pred(), &PremiseSet::default(), &env(), &stats);
            assert!(plan.composite_probe().is_none());
        }
        assert!(stats.seen.borrow().is_empty(), "gain gate filtered it");
    }

    #[test]
    fn est_rows_composes_independent_selectivities() {
        let pred = Formula::cmp("rating", CmpOp::Eq, 7i64)
            .and(Formula::cmp("price", CmpOp::Le, 9.5))
            .and(Formula::cmp("rating", CmpOp::Ne, 0i64));
        let plan = build_costed_plan(
            &ClassName::new("Item"),
            &pred,
            &PremiseSet::default(),
            &env(),
            &stats_1000(),
        );
        let est = plan.est_rows().expect("indexed plan estimates rows");
        // ~0.1 * ~0.1 * hint(rating <> 0 → 1.0) * 1000 ≈ 10.
        assert!((5..=20).contains(&est), "estimate near 10, got {est}");
    }
}
