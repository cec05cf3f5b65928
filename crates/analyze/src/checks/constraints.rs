//! Per-side constraint checks: unsatisfiable constraints (A001),
//! contradictory pairs effective on one class (A002), and atom/domain
//! type mismatches (A007).

use std::collections::{BTreeMap, BTreeSet};

use interop_constraint::solve::{
    conjunction_satisfiable, conjunction_witness, is_satisfiable, Prepared, TypeEnv,
};
use interop_constraint::{Catalog, ObjectConstraint};
use interop_model::{ClassName, Schema};

use crate::diag::{Code, Diagnostic, Location};
use crate::AnalysisInput;

/// Runs the per-side checks. Constraints found defective here (A001 or
/// A007) are recorded in `broken` by id text so the pair checks — this
/// module's A002 and the cross-database A003 — don't re-report the same
/// root cause.
pub(crate) fn check(
    input: &AnalysisInput<'_>,
    diags: &mut Vec<Diagnostic>,
    broken: &mut BTreeSet<String>,
) {
    for (schema, catalog) in [
        (input.local, input.local_catalog),
        (input.remote, input.remote_catalog),
    ] {
        side(schema, catalog, diags, broken);
    }
}

fn side(
    schema: &Schema,
    catalog: &Catalog,
    diags: &mut Vec<Diagnostic>,
    broken: &mut BTreeSet<String>,
) {
    let mut envs: BTreeMap<ClassName, TypeEnv> = BTreeMap::new();
    let mut env_of = |class: &ClassName| -> TypeEnv {
        envs.entry(class.clone())
            .or_insert_with(|| TypeEnv::for_class(schema, class))
            .clone()
    };

    // A007 / A001 per constraint.
    for oc in catalog.all_object() {
        let env = env_of(&oc.class);
        let mismatches = super::type_mismatches(&oc.formula, &env);
        if !mismatches.is_empty() {
            for m in mismatches {
                diags.push(Diagnostic::new(
                    Code::A007,
                    Location::item(oc.id.as_str()),
                    m,
                ));
            }
            // A type-broken constraint is excluded from the satisfiability
            // checks: an unsat verdict would restate the same root cause.
            broken.insert(oc.id.as_str().to_owned());
            continue;
        }
        if !is_satisfiable(&oc.formula, &env) {
            diags.push(Diagnostic::new(
                Code::A001,
                Location::item(oc.id.as_str()),
                format!(
                    "constraint '{}' on class {} can never hold over the declared domains",
                    oc.formula, oc.class
                ),
            ));
            broken.insert(oc.id.as_str().to_owned());
        }
    }

    // A002: pairwise conjunctions among the constraints *effective* on
    // each class. A pair is reported once, at the first (shallowest)
    // class where both members are visible together. The class's family
    // first gets one witness search: a branch of the whole family's
    // conjunction that the theory check accepts makes every pair in it
    // satisfiable (see `conjunction_witness`), so the class is done.
    // Otherwise the pair loop decides each pair on its own.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for def in schema.classes() {
        let effective = catalog.object_effective(schema, &def.name);
        let env = env_of(&def.name);
        let family = family(&effective, broken);
        if conjunction_witness(family.iter().flatten(), &env) {
            continue;
        }
        for (i, a) in effective.iter().enumerate() {
            for (j, b) in effective.iter().enumerate().skip(i + 1) {
                let (Some(pa), Some(pb)) = (&family[i], &family[j]) else {
                    continue; // a broken member
                };
                let (first, second) = if a.id.as_str() <= b.id.as_str() {
                    (a, b)
                } else {
                    (b, a)
                };
                let key = (first.id.as_str().to_owned(), second.id.as_str().to_owned());
                if seen.contains(&key) {
                    continue;
                }
                if !conjunction_satisfiable([pa, pb], &env) {
                    diags.push(
                        Diagnostic::new(
                            Code::A002,
                            Location::item(&key.0),
                            format!(
                                "constraints '{}' and '{}' can never hold together on class {}",
                                first.formula, second.formula, def.name
                            ),
                        )
                        .with_related(Location::item(&key.1)),
                    );
                    seen.insert(key);
                }
            }
        }
    }
}

/// One class's A002 family: each effective constraint prepared once, for
/// the witness search and the pair loop alike, or `None` for one a
/// per-constraint check reported broken, which neither of them tests.
fn family(effective: &[&ObjectConstraint], broken: &BTreeSet<String>) -> Vec<Option<Prepared>> {
    effective
        .iter()
        .map(|oc| (!broken.contains(oc.id.as_str())).then(|| Prepared::new(&oc.formula)))
        .collect()
}
