//! Property-based tests for the solver: soundness of satisfiability and
//! implication against brute-force evaluation over sampled assignments,
//! and semantic preservation of the normalisation passes.

use std::collections::BTreeMap;

use interop_constraint::normalize::{fold_expr, nnf, simplify, split_conjuncts};
use interop_constraint::solve::{implies, is_satisfiable, project, TypeEnv};
use interop_constraint::{CmpOp, Expr, Formula, Path};
use interop_model::{Type, Value};
use proptest::prelude::*;

/// Three attributes: x, y (ints 0..=9 via range type), flag (bool).
fn env() -> TypeEnv {
    TypeEnv::new()
        .with("x", Type::Range(0, 9))
        .with("y", Type::Range(0, 9))
        .with("flag", Type::Bool)
}

type Assignment = BTreeMap<&'static str, Value>;

fn assignments() -> Vec<Assignment> {
    let mut out = Vec::new();
    for x in 0..10i64 {
        for y in [0i64, 3, 7, 9] {
            for flag in [false, true] {
                let mut m = BTreeMap::new();
                m.insert("x", Value::Int(x));
                m.insert("y", Value::Int(y));
                m.insert("flag", Value::Bool(flag));
                out.push(m);
            }
        }
    }
    out
}

/// Ground evaluation of the fragment used in this suite.
fn eval(f: &Formula, a: &Assignment) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Cmp(Expr::Attr(p), op, Expr::Const(v)) => {
            let lhs = &a[p.to_string().as_str()];
            lhs.compare(v).map(|o| op.test(o)).unwrap_or(false)
        }
        Formula::Cmp(Expr::Attr(p), op, Expr::Attr(q)) => {
            let lhs = &a[p.to_string().as_str()];
            let rhs = &a[q.to_string().as_str()];
            lhs.compare(rhs).map(|o| op.test(o)).unwrap_or(false)
        }
        Formula::In(Expr::Attr(p), set) => set.iter().any(|v| v.sem_eq(&a[p.to_string().as_str()])),
        Formula::Not(inner) => !eval(inner, a),
        Formula::And(fs) => fs.iter().all(|g| eval(g, a)),
        Formula::Or(fs) => fs.iter().any(|g| eval(g, a)),
        Formula::Implies(l, r) => !eval(l, a) || eval(r, a),
        other => panic!("unsupported formula in ground eval: {other}"),
    }
}

fn arb_atom() -> impl Strategy<Value = Formula> {
    let var = prop::sample::select(vec!["x", "y"]);
    let op = prop::sample::select(vec![
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ]);
    prop_oneof![
        (var.clone(), op.clone(), 0i64..10).prop_map(|(v, o, c)| Formula::cmp(v, o, c)),
        (op, prop::sample::select(vec![("x", "y"), ("y", "x")]))
            .prop_map(|(o, (a, b))| Formula::Cmp(Expr::attr(a), o, Expr::attr(b))),
        prop::collection::btree_set(0i64..10, 1..4).prop_map(|s| Formula::isin("x", s)),
        prop::sample::select(vec![true, false]).prop_map(|b| Formula::cmp("flag", CmpOp::Eq, b)),
    ]
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    arb_atom().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Formula::Or),
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            (inner.clone(), inner).prop_map(|(a, b)| a.implies(b)),
        ]
    })
}

/// `simplify` as it was with a linear duplicate check per `And`/`Or`
/// child: the reference the hash-guarded version must reproduce exactly.
fn linear_simplify(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False => f.clone(),
        Formula::Cmp(a, op, b) => {
            let (a, b) = (fold_expr(a), fold_expr(b));
            if let (Some(va), Some(vb)) = (a.as_const(), b.as_const()) {
                if !va.is_null() && !vb.is_null() {
                    if let Some(ord) = va.compare(vb) {
                        return if op.test(ord) {
                            Formula::True
                        } else {
                            Formula::False
                        };
                    }
                }
            }
            Formula::Cmp(a, *op, b)
        }
        Formula::In(e, set) => {
            let e = fold_expr(e);
            if set.is_empty() {
                return Formula::False;
            }
            if let Some(v) = e.as_const() {
                if !v.is_null() {
                    return if set.iter().any(|s| s.sem_eq(v)) {
                        Formula::True
                    } else {
                        Formula::False
                    };
                }
            }
            Formula::In(e, set.clone())
        }
        Formula::Contains(e, s) => {
            let e = fold_expr(e);
            if let Some(Value::Str(hay)) = e.as_const() {
                return if hay.contains(s.as_str()) {
                    Formula::True
                } else {
                    Formula::False
                };
            }
            Formula::Contains(e, s.clone())
        }
        Formula::Not(inner) => match linear_simplify(inner) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(g) => *g,
            g => Formula::Not(Box::new(g)),
        },
        Formula::And(fs) => {
            let mut out = Vec::new();
            for g in fs {
                match linear_simplify(g) {
                    Formula::True => {}
                    Formula::False => return Formula::False,
                    Formula::And(inner) => out.extend(inner),
                    g => {
                        if !out.contains(&g) {
                            out.push(g);
                        }
                    }
                }
            }
            match out.len() {
                0 => Formula::True,
                1 => out.pop().unwrap(),
                _ => Formula::And(out),
            }
        }
        Formula::Or(fs) => {
            let mut out = Vec::new();
            for g in fs {
                match linear_simplify(g) {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    Formula::Or(inner) => out.extend(inner),
                    g => {
                        if !out.contains(&g) {
                            out.push(g);
                        }
                    }
                }
            }
            match out.len() {
                0 => Formula::False,
                1 => out.pop().unwrap(),
                _ => Formula::Or(out),
            }
        }
        Formula::Implies(a, b) => match (linear_simplify(a), linear_simplify(b)) {
            (Formula::True, b) => b,
            (Formula::False, _) => Formula::True,
            (_, Formula::True) => Formula::True,
            (a, Formula::False) => linear_simplify(&Formula::Not(Box::new(a))),
            (a, b) => Formula::Implies(Box::new(a), Box::new(b)),
        },
    }
}

/// Formulas over a pool of four atoms plus the constants, whose `And`
/// and `Or` nodes repeat a child: either one of their own children, or
/// a member of a child that is itself an `And`/`Or` and may flatten into
/// them. Constant folding makes further repeats.
fn arb_repetitive_formula() -> impl Strategy<Value = Formula> {
    let atom = prop::sample::select(vec![
        Formula::cmp("x", CmpOp::Ge, 1i64),
        Formula::cmp("x", CmpOp::Ge, 1.0),
        Formula::cmp("y", CmpOp::Lt, 3i64),
        Formula::isin("x", [Value::Int(1), Value::real(2.0)]),
        Formula::Cmp(Expr::val(1i64), CmpOp::Lt, Expr::val(2i64)),
        Formula::True,
        Formula::False,
    ]);
    atom.prop_recursive(3, 48, 6, |inner| {
        let children = (prop::collection::vec(inner.clone(), 0..6), any::<usize>())
            .prop_map(|(mut cs, k)| {
                if let Some(c) = cs.get(k % cs.len().max(1)).cloned() {
                    cs.push(match c {
                        Formula::And(gs) | Formula::Or(gs) if !gs.is_empty() => {
                            gs[k % gs.len()].clone()
                        }
                        c => c,
                    });
                }
                cs
            })
            .boxed();
        prop_oneof![
            children.clone().prop_map(Formula::And),
            children.prop_map(Formula::Or),
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            (inner.clone(), inner).prop_map(|(a, b)| a.implies(b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// If the solver says UNSAT, no assignment satisfies the formula.
    #[test]
    fn unsat_is_sound(f in arb_formula()) {
        let e = env();
        if !is_satisfiable(&f, &e) {
            for a in assignments() {
                prop_assert!(!eval(&f, &a), "solver claimed unsat but {:?} satisfies {}", a, f);
            }
        }
    }

    /// If the solver proves `phi ⊨ psi`, every model of phi models psi.
    #[test]
    fn implication_is_sound(phi in arb_formula(), psi in arb_formula()) {
        let e = env();
        if implies(&phi, &psi, &e) {
            for a in assignments() {
                if eval(&phi, &a) {
                    prop_assert!(eval(&psi, &a), "{:?}: {} does not imply {}", a, phi, psi);
                }
            }
        }
    }

    /// NNF preserves ground semantics.
    #[test]
    fn nnf_preserves_semantics(f in arb_formula()) {
        let n = nnf(&f);
        for a in assignments() {
            prop_assert_eq!(eval(&f, &a), eval(&n, &a), "nnf changed {} at {:?}", f, a);
        }
    }

    /// Simplification preserves ground semantics.
    #[test]
    fn simplify_preserves_semantics(f in arb_formula()) {
        let s = simplify(&f);
        for a in assignments() {
            prop_assert_eq!(eval(&f, &a), eval(&s, &a), "simplify changed {} at {:?}", f, a);
        }
    }

    /// The conjunction of split parts equals the original.
    #[test]
    fn split_conjuncts_preserves_semantics(f in arb_formula()) {
        let parts = split_conjuncts(&f);
        let rebuilt = Formula::conj(parts);
        for a in assignments() {
            prop_assert_eq!(eval(&f, &a), eval(&rebuilt, &a));
        }
    }

    /// Projection over-approximates: every model's value of x lies in the
    /// projected domain.
    #[test]
    fn projection_is_an_over_approximation(f in arb_formula()) {
        let e = env();
        let dom = project(&f, &Path::parse("x"), &e);
        for a in assignments() {
            if eval(&f, &a) {
                prop_assert!(
                    dom.contains(&a["x"]),
                    "x = {} satisfies {} but escapes the projection {}",
                    &a["x"], f, dom
                );
            }
        }
    }

    /// Satisfiable-by-witness formulas are never reported unsat
    /// (completeness on the ground fragment).
    #[test]
    fn witnessed_sat_never_reported_unsat(f in arb_formula()) {
        let e = env();
        let has_model = assignments().iter().any(|a| eval(&f, a));
        if has_model {
            prop_assert!(is_satisfiable(&f, &e), "witnessed formula reported unsat: {}", f);
        }
    }

    /// The hash-guarded duplicate check drops exactly the children the
    /// linear one did, in the same order.
    #[test]
    fn simplify_matches_linear_duplicate_check(f in arb_repetitive_formula()) {
        prop_assert_eq!(simplify(&f), linear_simplify(&f), "simplify diverged on {}", f);
    }
}
