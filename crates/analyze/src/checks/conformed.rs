//! Cross-database checks in the conformed namespace: plan construction
//! failures (A010) and contradictory local/remote constraint pairs on
//! conformed attributes (A003).
//!
//! Both sides' object constraints are rewritten through the same
//! [`Rewriter`] the conform phase uses, so the analyzer sees exactly the
//! formulas the pipeline would compare — renames applied, constants
//! pushed through conversions.

use std::collections::{BTreeMap, BTreeSet};

use interop_conform::{plan::build_plans, AttrAction, PlanIndex, Rewriter};
use interop_constraint::solve::{conjunction_satisfiable, conjunction_witness, Prepared, TypeEnv};
use interop_constraint::{Formula, Path};
use interop_model::ClassName;
use interop_spec::{Relationship, Side};

use crate::diag::{Code, Diagnostic, Location};
use crate::AnalysisInput;

pub(crate) fn check(
    input: &AnalysisInput<'_>,
    diags: &mut Vec<Diagnostic>,
    broken: &BTreeSet<String>,
) {
    let (lp, rp) = match build_plans(input.spec, input.local, input.remote) {
        Ok(plans) => plans,
        Err(e) => {
            diags.push(Diagnostic::new(
                Code::A010,
                Location::item(format!(
                    "integration {} with {}",
                    input.spec.local_db, input.spec.remote_db
                )),
                format!("spec cannot be conformed: {e}"),
            ));
            return;
        }
    };
    let idx_l = PlanIndex::new(input.local, &lp);
    let idx_r = PlanIndex::new(input.remote, &rp);
    let rw_l = Rewriter::new(&idx_l);
    let rw_r = Rewriter::new(&idx_r);

    // Class pairs whose instances can denote the same real-world object:
    // equality counterpart/subject, and similarity subject/target.
    let mut pairs: Vec<(ClassName, ClassName, String)> = Vec::new();
    for r in &input.spec.rules {
        let (lclass, rclass) = match &r.relationship {
            Relationship::Equality => match (&r.subject_side, &r.counterpart_class) {
                (Side::Remote, Some(c)) => (c.clone(), r.subject_class.clone()),
                (Side::Local, Some(c)) => (r.subject_class.clone(), c.clone()),
                _ => continue,
            },
            Relationship::StrictSimilarity { class }
            | Relationship::ApproxSimilarity { class, .. } => match r.subject_side {
                Side::Local => (r.subject_class.clone(), class.clone()),
                Side::Remote => (class.clone(), r.subject_class.clone()),
            },
            // Descriptivity objectifies a value set; its constraints are
            // reallocated to the virtual class, not conjoined.
            Relationship::Descriptivity { .. } => continue,
        };
        pairs.push((lclass, rclass, r.id.to_string()));
    }

    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for (lclass, rclass, rule_id) in pairs {
        if input.local.class(&lclass).is_none() || input.remote.class(&rclass).is_none() {
            continue;
        }
        let mut env = TypeEnv::new();
        conformed_env(&idx_l, &lclass, &mut env);
        conformed_env(&idx_r, &rclass, &mut env);
        let lcs = rewritten(input, Side::Local, &rw_l, &lclass, broken);
        let rcs = rewritten(input, Side::Remote, &rw_r, &rclass, broken);
        // One witness search over both sides' constraints decides every
        // cross pair when it finds a branch (see `conjunction_witness`);
        // otherwise each pair is decided on its own.
        let lps: Vec<Prepared> = lcs.values().map(Prepared::new).collect();
        let rps: Vec<Prepared> = rcs.values().map(Prepared::new).collect();
        if conjunction_witness(lps.iter().chain(&rps), &env) {
            continue;
        }
        for ((lid, lf), lp) in lcs.iter().zip(&lps) {
            for ((rid, rf), rp) in rcs.iter().zip(&rps) {
                let key = (lid.clone(), rid.clone());
                if reported.contains(&key) {
                    continue;
                }
                if !conjunction_satisfiable([lp, rp], &env) {
                    diags.push(
                        Diagnostic::new(
                            Code::A003,
                            Location::item(lid),
                            format!(
                                "conformed constraint '{lf}' contradicts remote '{rf}' \
                                 (classes {lclass} ~ {rclass} related by rule {rule_id})"
                            ),
                        )
                        .with_related(Location::item(rid)),
                    );
                    reported.insert(key);
                }
            }
        }
    }
}

/// Registers the conformed name and type of every visible attribute of
/// `class` into `env`. Objectified attributes become references and are
/// left untyped (unconstrained — conservative).
fn conformed_env(idx: &PlanIndex<'_>, class: &ClassName, env: &mut TypeEnv) {
    for (attr, info) in idx.class_attrs(class) {
        match &info.action {
            Some(AttrAction::Objectified(..)) => {}
            Some(AttrAction::Planned(p)) => {
                env.insert(Path::attr(p.new_name.clone()), p.new_type.clone());
            }
            None => {
                env.insert(Path::attr(attr.clone()), info.def.ty.clone());
            }
        }
    }
}

/// The class's effective object constraints, rewritten into the
/// conformed namespace. Constraints the rewriter cannot conform (the
/// pipeline drops them with a note) and constraints already reported
/// broken (A001/A007) are skipped.
fn rewritten(
    input: &AnalysisInput<'_>,
    side: Side,
    rw: &Rewriter<'_>,
    class: &ClassName,
    broken: &BTreeSet<String>,
) -> BTreeMap<String, Formula> {
    let (schema, catalog) = match side {
        Side::Local => (input.local, input.local_catalog),
        Side::Remote => (input.remote, input.remote_catalog),
    };
    let mut out = BTreeMap::new();
    for oc in catalog.object_effective(schema, class) {
        if broken.contains(oc.id.as_str()) {
            continue;
        }
        if let Ok(f) = rw.rewrite_formula(class, &oc.formula) {
            out.insert(oc.id.as_str().to_owned(), f);
        }
    }
    out
}
