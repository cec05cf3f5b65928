//! Property suite for the static spec analyzer.
//!
//! Two halves:
//!
//! * **Soundness of silence** — randomly generated well-formed specs
//!   over a fixed schema pair are parsed through the real front-end and
//!   analyzed; whenever the analyzer reports no *error*-severity
//!   diagnostic, the full conform → merge pipeline must run without a
//!   `Conform`/`Merge` error. (Warnings and hints — dead rules,
//!   planner lints — are allowed and must not block.)
//! * **Non-vacuity** — every seeded defect-corpus fixture is caught by
//!   exactly its own diagnostic code, and the paper fixture stays
//!   diagnostic-free; silence is only meaningful because the defects it
//!   rules out are demonstrably detectable.
//!
//! A third part pins the pair checks (A002, A003) to the pair loops they
//! ran before each family got one witness search first: the loops are
//! kept below as the oracle, and random catalogs with contradictory
//! pairs, three-way contradictions, inherited constraints, broken
//! constraints and numeric and string atoms meeting on an untyped path
//! must give the same diagnostics, byte for byte.

use std::collections::{BTreeMap, BTreeSet};

use db_interop::analyze::{
    analyze, canonicalize, corpus, has_errors, render, AnalysisInput, Code, Diagnostic, Location,
};
use db_interop::conform::{plan::build_plans, AttrAction, PlanIndex, Rewriter};
use db_interop::constraint::solve::{
    conjunction_satisfiable, conjunction_witness, Prepared, TypeEnv,
};
use db_interop::constraint::{Formula, Path};
use db_interop::core::{Integrator, PreflightMode};
use db_interop::lang::{parse_database, parse_spec, ParsedDatabase};
use db_interop::model::{ClassName, Database};
use db_interop::spec::{Relationship, Side, Spec};
use proptest::prelude::*;

const LOCAL_TM: &str = "database LocalDB\n\n\
    class Person\n  attributes\n    name : string\n    age : 0..120\n    score : 1..5\n\
    end Person\n\n\
    class Student isa Person\n  attributes\n    unit : string\nend Student\n";

const REMOTE_TM: &str = "database RemoteDB\n\n\
    class Member\n  attributes\n    name : string\n    age : 0..120\n    \
    grade : 1..10\n    level : 1..4\n    active : boolean\nend Member\n";

/// One random premise atom over `Member`'s integer attributes. Constants
/// are drawn from a window *wider* than the declared domains, so some
/// generated rules are dead (A004) — those must surface as warnings,
/// never as pipeline failures.
#[derive(Clone, Debug)]
struct Atom {
    attr: &'static str,
    op: &'static str,
    val: i64,
}

impl Atom {
    fn render(&self) -> String {
        format!("m.{} {} {}", self.attr, self.op, self.val)
    }
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (0usize..3, 0usize..3, -5i64..130).prop_map(|(a, o, val)| Atom {
        attr: ["age", "grade", "level"][a],
        op: ["=", ">=", "<="][o],
        val,
    })
}

/// A random similarity rule: 1–2 premise atoms conjoined.
fn arb_rule() -> impl Strategy<Value = Vec<Atom>> {
    prop::collection::vec(arb_atom(), 1..3)
}

/// A random well-formed spec source: the anchoring equality rule, a
/// random batch of similarity rules, and a random subset of valid
/// property equivalences (distinct declared attributes, so A006 cannot
/// fire by construction).
fn arb_spec_src() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(arb_rule(), 0..4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(rules, pe_age, pe_score)| {
            let mut src = String::from(
                "integration LocalDB with RemoteDB\n\n\
                 rule r1: Eq(p : Person, m : Member) <- p.name = m.name\n",
            );
            for (i, atoms) in rules.iter().enumerate() {
                let premise: Vec<String> = atoms.iter().map(Atom::render).collect();
                src.push_str(&format!(
                    "rule s{}: Sim(m : Member, Student) <- {}\n",
                    i + 2,
                    premise.join(" and ")
                ));
            }
            if pe_age {
                src.push_str("propeq(Person.age, Member.age, id, id, avg)\n");
            }
            if pe_score {
                src.push_str("propeq(Person.score, Member.grade, id, id, any)\n");
            }
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Analyzer-clean specs integrate: no error diagnostics ⇒ the full
    /// conform → merge pipeline succeeds on the (empty-extent) databases.
    #[test]
    fn clean_specs_integrate(spec_src in arb_spec_src()) {
        let local = parse_database(LOCAL_TM).unwrap();
        let remote = parse_database(REMOTE_TM).unwrap();
        let spec = parse_spec(&spec_src, &local.schema, &remote.schema)
            .unwrap_or_else(|e| panic!("generated spec must parse: {e}\n{spec_src}"));
        let diags = analyze(&AnalysisInput {
            local: &local.schema,
            local_catalog: &local.catalog,
            remote: &remote.schema,
            remote_catalog: &remote.catalog,
            spec: &spec,
        });
        // The generator only produces structurally valid specs, so the
        // analyzer must never find an error-severity defect in them...
        prop_assert!(
            !has_errors(&diags),
            "generated spec flagged with errors:\n{}\n{spec_src}",
            render(&diags)
        );
        // ...and analyzer silence must be honoured by the pipeline.
        let integrator = Integrator::new(
            Database::new(local.schema, 1),
            local.catalog,
            Database::new(remote.schema, 2),
            remote.catalog,
            spec,
        );
        prop_assert!(integrator.preflight_gate(PreflightMode::Strict).is_ok());
        let outcome = integrator.run_checked();
        prop_assert!(
            outcome.is_ok(),
            "analyzer-clean spec failed to integrate: {:?}\n{spec_src}",
            outcome.err()
        );
    }
}

#[test]
fn corpus_is_nonvacuous_and_exact() {
    for f in corpus::defect_corpus() {
        let diags = corpus::analyze_fixture(&f).unwrap();
        let fired: std::collections::BTreeSet<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            fired,
            std::iter::once(f.code).collect(),
            "fixture {} must trigger exactly {:?}, got:\n{}",
            f.name,
            f.code,
            render(&diags)
        );
    }
}

#[test]
fn paper_fixture_is_clean() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |p: &str| std::fs::read_to_string(format!("{root}/{p}")).unwrap();
    let local = parse_database(&read("assets/cslibrary.tm")).unwrap();
    let remote = parse_database(&read("assets/bookseller.tm")).unwrap();
    let spec = parse_spec(
        &read("assets/paper_spec.tmspec"),
        &local.schema,
        &remote.schema,
    )
    .unwrap();
    let diags = analyze(&AnalysisInput {
        local: &local.schema,
        local_catalog: &local.catalog,
        remote: &remote.schema,
        remote_catalog: &remote.catalog,
        spec: &spec,
    });
    assert!(
        diags.is_empty(),
        "paper fixture must be clean:\n{}",
        render(&diags)
    );
}

// ---------------------------------------------------------------------
// The pair checks against the pair loops they used to be.
// ---------------------------------------------------------------------

/// A002 and A003 as the analyzer computed them with one solver call per
/// pair, given the constraints the per-constraint checks (A001, A007)
/// reported broken.
fn pair_loop_oracle(
    local: &ParsedDatabase,
    remote: &ParsedDatabase,
    spec: &Spec,
    broken: &BTreeSet<String>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for side in [local, remote] {
        let (schema, catalog) = (&side.schema, &side.catalog);
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        for def in schema.classes() {
            let effective = catalog.object_effective(schema, &def.name);
            let env = TypeEnv::for_class(schema, &def.name);
            let prepared: Vec<Prepared> = effective
                .iter()
                .map(|oc| Prepared::new(&oc.formula))
                .collect();
            for (i, a) in effective.iter().enumerate() {
                for (j, b) in effective.iter().enumerate().skip(i + 1) {
                    let (first, second) = if a.id.as_str() <= b.id.as_str() {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let key = (first.id.as_str().to_owned(), second.id.as_str().to_owned());
                    if broken.contains(&key.0) || broken.contains(&key.1) || seen.contains(&key) {
                        continue;
                    }
                    if !conjunction_satisfiable([&prepared[i], &prepared[j]], &env) {
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

    let Ok((lp, rp)) = build_plans(spec, &local.schema, &remote.schema) else {
        return canonicalize(diags);
    };
    let idx_l = PlanIndex::new(&local.schema, &lp);
    let idx_r = PlanIndex::new(&remote.schema, &rp);
    let rw_l = Rewriter::new(&idx_l);
    let rw_r = Rewriter::new(&idx_r);
    let mut pairs: Vec<(ClassName, ClassName, String)> = Vec::new();
    for r in &spec.rules {
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
            Relationship::Descriptivity { .. } => continue,
        };
        pairs.push((lclass, rclass, r.id.to_string()));
    }
    let conformed_env = |idx: &PlanIndex<'_>, class: &ClassName, env: &mut TypeEnv| {
        for (attr, info) in idx.class_attrs(class) {
            match &info.action {
                Some(AttrAction::Objectified(..)) => {}
                Some(AttrAction::Planned(p)) => {
                    env.insert(Path::attr(p.new_name.clone()), p.new_type.clone());
                }
                None => env.insert(Path::attr(attr.clone()), info.def.ty.clone()),
            }
        }
    };
    let rewritten = |side: &ParsedDatabase, rw: &Rewriter<'_>, class: &ClassName| {
        let mut out = BTreeMap::new();
        for oc in side.catalog.object_effective(&side.schema, class) {
            if broken.contains(oc.id.as_str()) {
                continue;
            }
            if let Ok(f) = rw.rewrite_formula(class, &oc.formula) {
                out.insert(oc.id.as_str().to_owned(), f);
            }
        }
        out
    };
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for (lclass, rclass, rule_id) in pairs {
        if local.schema.class(&lclass).is_none() || remote.schema.class(&rclass).is_none() {
            continue;
        }
        let mut env = TypeEnv::new();
        conformed_env(&idx_l, &lclass, &mut env);
        conformed_env(&idx_r, &rclass, &mut env);
        let lcs: BTreeMap<String, Formula> = rewritten(local, &rw_l, &lclass);
        let rcs: BTreeMap<String, Formula> = rewritten(remote, &rw_r, &rclass);
        let rps: Vec<Prepared> = rcs.values().map(Prepared::new).collect();
        for (lid, lf) in &lcs {
            let lp = Prepared::new(lf);
            for ((rid, rf), rp) in rcs.iter().zip(&rps) {
                let key = (lid.clone(), rid.clone());
                if reported.contains(&key) {
                    continue;
                }
                if !conjunction_satisfiable([&lp, rp], &env) {
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
    canonicalize(diags)
}

/// Parses the three sources and returns the analyzer's A002/A003
/// diagnostics and the oracle's, each rendered.
fn pair_streams(local_tm: &str, remote_tm: &str, spec_src: &str) -> (String, String) {
    let local = parse_database(local_tm).unwrap_or_else(|e| panic!("local: {e}\n{local_tm}"));
    let remote = parse_database(remote_tm).unwrap_or_else(|e| panic!("remote: {e}\n{remote_tm}"));
    let spec = parse_spec(spec_src, &local.schema, &remote.schema)
        .unwrap_or_else(|e| panic!("spec: {e}\n{spec_src}"));
    let diags = analyze(&AnalysisInput {
        local: &local.schema,
        local_catalog: &local.catalog,
        remote: &remote.schema,
        remote_catalog: &remote.catalog,
        spec: &spec,
    });
    let broken: BTreeSet<String> = diags
        .iter()
        .filter(|d| matches!(d.code, Code::A001 | Code::A007))
        .map(|d| d.location.item.clone())
        .collect();
    let pairs: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| matches!(d.code, Code::A002 | Code::A003))
        .collect();
    let oracle = pair_loop_oracle(&local, &remote, &spec, &broken);
    (render(&pairs), render(&oracle))
}

/// A class declaration with an optional parent and object constraints
/// named `oc1`, `oc2`, ...
fn class_src(name: &str, parent: Option<&str>, attrs: &str, constraints: &[String]) -> String {
    let mut src = format!("class {name}");
    if let Some(p) = parent {
        src.push_str(&format!(" isa {p}"));
    }
    src.push_str(&format!("\n  attributes\n{attrs}"));
    if !constraints.is_empty() {
        src.push_str("  object constraints\n");
        for (i, c) in constraints.iter().enumerate() {
            src.push_str(&format!("    oc{}: {c}\n", i + 1));
        }
    }
    src.push_str(&format!("end {name}\n\n"));
    src
}

/// The local side: `Person`, `Student isa Person`, `PhD isa Student`, so
/// a constraint on `Person` is effective on all three. `Person.r.s.t` is
/// two references deep (through `Dept` and `Site`), a path the class's
/// type environment leaves untyped.
fn chain_local_tm(person: &[String], student: &[String], phd: &[String]) -> String {
    format!(
        "database LocalDB\n\n{}{}{}{}{}",
        class_src(
            "Person",
            None,
            "    name : string\n    age : 0..120\n    score : 1..5\n    r : Dept\n",
            person
        ),
        class_src("Student", Some("Person"), "    year : 1..6\n", student),
        class_src("PhD", Some("Student"), "    field : string\n", phd),
        class_src("Dept", None, "    s : Site\n", &[]),
        class_src("Site", None, "    t : string\n", &[]),
    )
}

/// The remote side: `Member` and `Senior isa Member`, with the untyped
/// `Member.r.s.t` through `Unit` and `Spot`.
fn chain_remote_tm(member: &[String], senior: &[String]) -> String {
    format!(
        "database RemoteDB\n\n{}{}{}{}",
        class_src(
            "Member",
            None,
            "    name : string\n    age : 0..120\n    grade : 1..10\n    level : 1..4\n    \
             r : Unit\n",
            member
        ),
        class_src("Senior", Some("Member"), "    since : 1..50\n", senior),
        class_src("Unit", None, "    s : Spot\n", &[]),
        class_src("Spot", None, "    t : string\n", &[]),
    )
}

/// One drawn constraint: a template number, an attribute index, an
/// operator index and two constants.
type Drawn = (u8, u8, u8, i64, i64);

/// Renders drawn constraints over a class's visible numeric attributes.
/// The templates cover bounds, memberships, conditionals, disjunctions,
/// string atoms, A007 type mismatches, A001 contradictions, and a
/// three-way contradiction whose pairs are all satisfiable.
fn render_constraints(drawn: &[Drawn], numeric: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for &(kind, attr, op, c1, c2) in drawn {
        let a = numeric[attr as usize % numeric.len()];
        let b = numeric[(attr as usize + 1) % numeric.len()];
        let cmp = [">=", "<=", "=", "<>"][op as usize % 4];
        match kind {
            0 | 1 => out.push(format!("{a} {cmp} {c1}")),
            2 => out.push(format!("{a} in {{{c1}, {c2}}}")),
            3 => out.push(format!("{a} = {c1} implies {b} {cmp} {c2}")),
            4 => out.push(format!("{a} = {c1} or {a} = {c2}")),
            5 => out.push(if op % 2 == 0 {
                format!(
                    "name {} '{}'",
                    ["=", "<>"][op as usize / 2 % 2],
                    ["a", "b"][c1 as usize % 2]
                )
            } else {
                format!(
                    "{}contains(name, '{}')",
                    ["", "not "][op as usize / 2 % 2],
                    ["a", "b"][c1 as usize % 2]
                )
            }),
            6 => out.push(if op % 2 == 0 {
                format!("name = {c1}")
            } else {
                format!("{a} = 'x'")
            }),
            7 => out.push(format!("{a} >= {c1} and {a} < {c1}")),
            _ => {
                let lo = c1.rem_euclid(3) + 1;
                out.push(format!("{a} in {{{lo}, {}}}", lo + 1));
                out.push(format!("{a} in {{{}, {}}}", lo + 1, lo + 2));
                out.push(format!("{a} in {{{lo}, {}}}", lo + 2));
            }
        }
    }
    out
}

fn arb_drawn() -> impl Strategy<Value = Vec<Drawn>> {
    prop::collection::vec((0u8..9, 0u8..4, 0u8..4, -1i64..7, -1i64..7), 0..5)
}

/// Atoms on the untyped `r.s.t`, which both chains reach: a number, a
/// string and mixed sets writing 3 as an int and as a real, `<>`, and
/// `contains` and `not contains`, which no number meets and every
/// number meets.
const UNTYPED: [&str; 7] = [
    "r.s.t in {'x', 3}",
    "r.s.t in {3.0, 'y'}",
    "r.s.t = 3",
    "r.s.t <> 3",
    "r.s.t = 'x'",
    "contains(r.s.t, 'y')",
    "not contains(r.s.t, 'x')",
];

/// `constraints` followed by the picked [`UNTYPED`] atoms.
fn with_untyped(mut constraints: Vec<String>, picks: &[usize]) -> Vec<String> {
    constraints.extend(picks.iter().map(|&i| UNTYPED[i].to_owned()));
    constraints
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The witness search changes no pair diagnostic: on random catalogs
    /// over two class chains and random rules relating them, the A002
    /// and A003 streams equal the pair loops' byte for byte.
    #[test]
    fn pair_checks_match_the_pair_loops(
        person in arb_drawn(),
        student in arb_drawn(),
        phd in arb_drawn(),
        member in arb_drawn(),
        senior in arb_drawn(),
        untyped in (
            prop::collection::vec(0..UNTYPED.len(), 0..5),
            prop::collection::vec(0..UNTYPED.len(), 0..5),
        ),
        rules in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let local_tm = chain_local_tm(
            &with_untyped(render_constraints(&person, &["age", "score"]), &untyped.0),
            &render_constraints(&student, &["age", "score", "year"]),
            &render_constraints(&phd, &["score", "year"]),
        );
        let remote_tm = chain_remote_tm(
            &with_untyped(render_constraints(&member, &["age", "grade", "level"]), &untyped.1),
            &render_constraints(&senior, &["grade", "level", "since"]),
        );
        let (sim_student, sim_phd, pe_score, pe_age) = rules;
        let mut spec = String::from(
            "integration LocalDB with RemoteDB\n\n\
             rule r1: Eq(p : Person, m : Member) <- p.name = m.name\n",
        );
        if sim_student {
            spec.push_str("rule r2: Sim(m : Member, Student) <- m.level >= 2\n");
        }
        if sim_phd {
            spec.push_str("rule r3: Sim(s : Senior, PhD) <- s.since >= 10\n");
        }
        if pe_score {
            spec.push_str("propeq(Person.score, Member.grade, multiply(2), id, avg)\n");
        }
        if pe_age {
            spec.push_str("propeq(Person.age, Member.age, id, id, avg)\n");
        }
        let (got, want) = pair_streams(&local_tm, &remote_tm, &spec);
        prop_assert_eq!(got, want, "{}\n{}\n{}", local_tm, remote_tm, spec);
    }
}

fn clean_conditionals(n: i64) -> Vec<String> {
    (0..n)
        .map(|i| format!("age = {i} implies score >= {}", i % 5 + 1))
        .collect()
}

const EQ_SPEC: &str = "integration LocalDB with RemoteDB\n\n\
    rule r1: Eq(p : Person, m : Member) <- p.name = m.name\n";

/// The constraints effective on `Person`, each prepared, and the class's
/// type environment: the family A002 tests on `Person`.
fn person_family(local_tm: &str) -> (Vec<Prepared>, TypeEnv) {
    let local = parse_database(local_tm).unwrap();
    let class = ClassName::new("Person");
    let family = local
        .catalog
        .object_effective(&local.schema, &class)
        .iter()
        .map(|oc| Prepared::new(&oc.formula))
        .collect();
    (family, TypeEnv::for_class(&local.schema, &class))
}

#[test]
fn one_contradictory_pair_among_clean_conditionals_is_reported_alone() {
    let mut person = clean_conditionals(30);
    person.push("age >= 50".into());
    person.push("age <= 20".into());
    let local_tm = chain_local_tm(&person, &[], &[]);
    let (got, want) = pair_streams(&local_tm, &chain_remote_tm(&[], &[]), EQ_SPEC);
    assert_eq!(got, want);
    assert_eq!(
        got,
        "error[A002] at LocalDB.Person.oc31: constraints 'age >= 50' and 'age <= 20' \
         can never hold together on class Person\n  related: LocalDB.Person.oc32\n"
    );
}

#[test]
fn a_family_past_the_branch_budget_falls_back_to_the_pairs() {
    // The pair of disjunctions contradicts, but the search reaches it
    // under 30 conditionals first: it ends 512 branches without a
    // witness, and the pair loop finds the pair.
    let mut person = clean_conditionals(30);
    person.push("score = 1 or score = 2".into());
    person.push("score = 3 or score = 4".into());
    let local_tm = chain_local_tm(&person, &[], &[]);
    let (family, env) = person_family(&local_tm);
    assert!(!conjunction_witness(&family, &env));
    // Past the size gate the whole family is not even decided.
    assert!(conjunction_satisfiable(&family, &env));
    let (got, want) = pair_streams(&local_tm, &chain_remote_tm(&[], &[]), EQ_SPEC);
    assert_eq!(got, want);
    assert_eq!(
        got,
        "error[A002] at LocalDB.Person.oc31: constraints 'score = 1 or score = 2' and \
         'score = 3 or score = 4' can never hold together on class Person\n  \
         related: LocalDB.Person.oc32\n"
    );
}

#[test]
fn a_three_way_contradiction_fails_the_witness_but_no_pair() {
    let person: Vec<String> = ["age in {1, 2}", "age in {2, 3}", "age in {1, 3}"]
        .map(String::from)
        .to_vec();
    let local_tm = chain_local_tm(&person, &[], &[]);
    let (family, env) = person_family(&local_tm);
    assert!(!conjunction_witness(&family, &env));
    let (got, want) = pair_streams(&local_tm, &chain_remote_tm(&[], &[]), EQ_SPEC);
    assert_eq!(got, want);
    assert_eq!(got, "no diagnostics\n");
}

#[test]
fn broken_constraints_stay_out_of_the_pairs() {
    // oc1 is unsatisfiable alone (A001) and oc2 mistyped (A007); each
    // would contradict oc3, but only their own codes report them. A
    // pair inherited into Student is reported once, on Person.
    let person: Vec<String> = ["age >= 9 and age < 9", "age = 'x'", "age <= 5", "age >= 7"]
        .map(String::from)
        .to_vec();
    let student = vec!["year >= 2".to_owned()];
    let (got, want) = pair_streams(
        &chain_local_tm(&person, &student, &[]),
        &chain_remote_tm(&[], &[]),
        EQ_SPEC,
    );
    assert_eq!(got, want);
    assert_eq!(
        got,
        "error[A002] at LocalDB.Person.oc3: constraints 'age <= 5' and 'age >= 7' \
         can never hold together on class Person\n  related: LocalDB.Person.oc4\n"
    );
}

#[test]
fn untyped_paths_mixing_kinds_keep_the_pair_diagnostics() {
    // `r.s.t` is two references deep, so the class's type environment
    // leaves it untyped and A007 does not check it: numeric and string
    // atoms meet on it. The whole family has no witness (`r.s.t = 3`
    // leaves a number, which contains no substring), and the pair loop
    // reports each pair with oc2, whose `contains` neither a number nor
    // 'x' or 'z' meets; the other pairs meet on 3, written `3.0` in oc4.
    let person = [
        "r.s.t in {'x', 3}",
        "contains(r.s.t, 'y')",
        "r.s.t = 3",
        "r.s.t in {3.0, 'z'}",
    ]
    .map(String::from);
    let local_tm = chain_local_tm(&person, &[], &[]);
    let (family, env) = person_family(&local_tm);
    assert!(!conjunction_witness(&family, &env));
    let (got, want) = pair_streams(&local_tm, &chain_remote_tm(&[], &[]), EQ_SPEC);
    assert_eq!(got, want);
    assert_eq!(
        got,
        "error[A002] at LocalDB.Person.oc1: constraints 'r.s.t in {3, 'x'}' and \
         'contains(r.s.t, 'y')' can never hold together on class Person\n  \
         related: LocalDB.Person.oc2\n\
         error[A002] at LocalDB.Person.oc2: constraints 'contains(r.s.t, 'y')' and \
         'r.s.t = 3' can never hold together on class Person\n  \
         related: LocalDB.Person.oc3\n\
         error[A002] at LocalDB.Person.oc2: constraints 'contains(r.s.t, 'y')' and \
         'r.s.t in {3, 'z'}' can never hold together on class Person\n  \
         related: LocalDB.Person.oc4\n"
    );
    // The number first, then the two sets: the witness asserts in this
    // order, and each pair meets on 3 as the whole family does.
    let person = ["r.s.t = 3", "r.s.t in {'x', 3}", "r.s.t in {3.0, 'y'}"].map(String::from);
    let local_tm = chain_local_tm(&person, &[], &[]);
    let (family, env) = person_family(&local_tm);
    assert!(conjunction_witness(&family, &env));
    let (got, want) = pair_streams(&local_tm, &chain_remote_tm(&[], &[]), EQ_SPEC);
    assert_eq!(got, want);
    assert_eq!(got, "no diagnostics\n");
}

#[test]
fn corpus_pair_fixtures_still_fire() {
    for f in corpus::defect_corpus() {
        if !matches!(f.code, Code::A002 | Code::A003) {
            continue;
        }
        let (got, want) = pair_streams(&f.local_tm, &f.remote_tm, &f.spec);
        assert_eq!(got, want, "fixture {}", f.name);
        assert!(
            got.contains(&format!("[{}]", f.code)),
            "fixture {} must fire {:?}:\n{got}",
            f.name,
            f.code
        );
    }
}
