//! Property-based tests for the solver: soundness of satisfiability and
//! implication against brute-force evaluation over sampled assignments,
//! semantic preservation of the normalisation passes, and verdicts equal
//! to the DNF expansion's (`dnf_oracle`) on the whole atom fragment.

mod dnf_oracle;

use std::collections::BTreeMap;

use interop_constraint::normalize::{dnf, fold_expr, nnf, simplify, split_conjuncts};
use interop_constraint::solve::{
    conjunction_satisfiable, conjunction_unsat, implies, is_satisfiable, project, Prepared, TypeEnv,
};
use interop_constraint::{ArithOp, CmpOp, Expr, Formula, Path};
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

/// The differential suite's paths: bounded and unbounded numerics, a
/// bool, two strings, a range with no values, untyped paths (opaque
/// discrete domains) and one integer path per disjunction of the
/// cap-boundary formulas.
fn mixed_env() -> TypeEnv {
    let mut e = TypeEnv::new()
        .with("x", Type::Range(0, 9))
        .with("y", Type::Range(0, 9))
        .with("r", Type::Real)
        .with("flag", Type::Bool)
        .with("s", Type::Str)
        .with("t", Type::Str)
        .with("void", Type::Range(1, 0));
    for k in 0..16 {
        e.insert(Path::parse(&format!("p{k}")), Type::Int);
    }
    e
}

fn bin(a: Expr, op: ArithOp, b: Expr) -> Expr {
    Expr::Bin(Box::new(a), op, Box::new(b))
}

fn not(f: Formula) -> Formula {
    Formula::Not(Box::new(f))
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(vec![
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

/// Every atom shape the theory distinguishes: path against constant,
/// path against path, affine and non-affine arithmetic, `in`/`not in`
/// over numbers and strings, `contains`/`not contains`, discrete
/// (dis)equalities, and opaque atoms it drops.
fn arb_mixed_atom() -> BoxedStrategy<Formula> {
    let num = prop::sample::select(vec!["x", "y", "r"]);
    let text = prop::sample::select(vec![Value::str("ab"), Value::str("abc"), Value::str("cd")]);
    let needle = prop::sample::select(vec!["a", "b", "ab", "zz"]);
    prop_oneof![
        (num.clone(), arb_op(), -1i64..11).prop_map(|(p, o, c)| Formula::cmp(p, o, c)),
        (num.clone(), arb_op(), num.clone()).prop_map(|(p, o, q)| Formula::Cmp(
            Expr::attr(p),
            o,
            Expr::attr(q)
        )),
        // 2·p - 1 op c: affine in one path.
        (num.clone(), arb_op(), 0i64..20).prop_map(|(p, o, c)| Formula::Cmp(
            bin(
                bin(Expr::val(2i64), ArithOp::Mul, Expr::attr(p)),
                ArithOp::Sub,
                Expr::val(1i64)
            ),
            o,
            Expr::val(c)
        )),
        // p + c op q: a difference bound.
        (num.clone(), -3i64..4, arb_op(), num.clone()).prop_map(|(p, c, o, q)| Formula::Cmp(
            bin(Expr::attr(p), ArithOp::Add, Expr::val(c)),
            o,
            Expr::attr(q)
        )),
        // p + q op c: two paths, not affine in one — opaque.
        (arb_op(), 0i64..19).prop_map(|(o, c)| Formula::Cmp(
            bin(Expr::attr("x"), ArithOp::Add, Expr::attr("y")),
            o,
            Expr::val(c)
        )),
        (
            num,
            prop::collection::btree_set(-1i64..11, 1..4),
            any::<bool>()
        )
            .prop_map(|(p, set, neg)| {
                let f = Formula::isin(p, set);
                if neg {
                    not(f)
                } else {
                    f
                }
            }),
        (
            prop::collection::btree_set(text.clone(), 1..3),
            any::<bool>()
        )
            .prop_map(|(set, neg)| {
                let f = Formula::In(Expr::attr("s"), set);
                if neg {
                    not(f)
                } else {
                    f
                }
            }),
        (needle, any::<bool>()).prop_map(|(n, neg)| {
            let f = Formula::Contains(Expr::attr("s"), n.into());
            if neg {
                not(f)
            } else {
                f
            }
        }),
        (text, any::<bool>()).prop_map(|(v, eq)| {
            Formula::Cmp(
                Expr::attr("s"),
                if eq { CmpOp::Eq } else { CmpOp::Ne },
                Expr::Const(v),
            )
        }),
        (arb_op(), prop::sample::select(vec!["t", "u"])).prop_map(|(o, q)| Formula::Cmp(
            Expr::attr("s"),
            o,
            Expr::attr(q)
        )),
        any::<bool>().prop_map(|b| Formula::cmp("flag", CmpOp::Eq, b)),
        // A path with an empty type domain, first met by the full check.
        prop::sample::select(vec![
            Formula::Contains(Expr::attr("void"), "a".into()),
            not(Formula::Contains(Expr::attr("void"), "a".into())),
            Formula::Cmp(Expr::attr("void"), CmpOp::Ne, Expr::attr("x")),
        ]),
        // String ordering and untyped paths: opaque to the theory.
        prop::sample::select(vec![
            Formula::Cmp(Expr::attr("s"), CmpOp::Lt, Expr::val("m")),
            Formula::Cmp(Expr::attr("u"), CmpOp::Ge, Expr::val("q")),
            Formula::cmp("u", CmpOp::Eq, 3i64),
            Formula::True,
            Formula::False,
            Formula::Cmp(Expr::val(1i64), CmpOp::Lt, Expr::val(2i64)),
        ]),
    ]
    .boxed()
}

/// Boolean structure over [`arb_mixed_atom`]: implications, negations,
/// and `And`/`Or` nested three deep, up to four wide.
fn arb_mixed_formula() -> BoxedStrategy<Formula> {
    arb_mixed_atom().prop_recursive(3, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..5).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 1..5).prop_map(Formula::Or),
            inner.clone().prop_map(not),
            (inner.clone(), inner).prop_map(|(a, b)| a.implies(b)),
        ]
    })
}

/// Member `j` of disjunction `k` of a cap-boundary formula: distinct for
/// distinct `(k, j)`, of one of six shapes.
fn member(k: usize, j: usize, kind: usize) -> Formula {
    let p = format!("p{k}");
    let j64 = j as i64;
    match kind % 6 {
        0 => Formula::cmp(&p, CmpOp::Eq, j64),
        1 => Formula::isin(&p, [j64, j64 + 1000]),
        2 => not(Formula::isin(&p, [j64])),
        3 => Formula::Contains(Expr::attr("s"), format!("{k}:{j}")),
        4 => not(Formula::Contains(Expr::attr("s"), format!("{k}:{j}"))),
        _ => Formula::Cmp(
            bin(Expr::attr(&p), ArithOp::Add, Expr::val(j64)),
            CmpOp::Le,
            Expr::attr("y"),
        ),
    }
}

/// Formulas whose DNF has exactly 511, 512 or 513 conjuncts: a
/// disjunction of products of disjunctions of distinct members, joined
/// with up to three unit conjuncts and, half the time, a pair of
/// difference bounds only the full check refutes on every branch.
fn arb_cap_boundary_formula() -> BoxedStrategy<(Formula, usize)> {
    let shapes: Vec<(usize, Vec<Vec<usize>>)> = vec![
        (511, vec![vec![7, 73]]),
        (511, vec![vec![511]]),
        (511, vec![vec![16, 16], vec![255]]),
        (512, vec![vec![2; 9]]),
        (512, vec![vec![8, 64]]),
        (512, vec![vec![16, 16], vec![16, 16]]),
        (513, vec![vec![3, 171]]),
        (513, vec![vec![27, 19]]),
        (513, vec![vec![16, 16], vec![257]]),
    ];
    (
        prop::sample::select(shapes),
        prop::collection::vec(0usize..6, 8..9),
        prop::collection::vec(arb_mixed_atom(), 0..4),
        any::<bool>(),
    )
        .prop_map(|((size, products), kinds, units, poison)| {
            let mut k = 0;
            let mut alternatives = Vec::new();
            for widths in products {
                let mut factors = Vec::new();
                for w in widths {
                    let kind = kinds[k % kinds.len()];
                    factors.push(Formula::Or(
                        (0..w).map(|j| member(k, j, kind + j)).collect(),
                    ));
                    k += 1;
                }
                alternatives.push(Formula::And(factors));
            }
            let mut conjuncts = vec![Formula::Or(alternatives)];
            // Units that fold to a constant would change the size.
            conjuncts.extend(
                units
                    .into_iter()
                    .filter(|u| !matches!(simplify(u), Formula::True | Formula::False)),
            );
            if poison {
                conjuncts.push(Formula::Cmp(Expr::attr("x"), CmpOp::Lt, Expr::attr("y")));
                conjuncts.push(Formula::Cmp(Expr::attr("y"), CmpOp::Lt, Expr::attr("x")));
            }
            (Formula::And(conjuncts), size)
        })
        .boxed()
}

/// Parts for a conjunction, with repeats: some parts again, and one
/// `And` of two parts. Half the time that `And` hides under a
/// one-member `Or`, so its members join only once simplified.
fn arb_parts() -> BoxedStrategy<Vec<Formula>> {
    (
        prop::collection::vec(arb_mixed_formula(), 1..5),
        prop::collection::vec(0usize..8, 0..4),
        any::<usize>(),
        any::<bool>(),
    )
        .prop_map(|(mut parts, repeats, pair, hidden)| {
            let n = parts.len();
            for r in repeats {
                parts.push(parts[r % n].clone());
            }
            let mut both =
                Formula::And(vec![parts[pair % n].clone(), parts[(pair / 7) % n].clone()]);
            if hidden {
                both = Formula::Or(vec![both]);
            }
            parts.insert((pair / 3) % (n + 1), both);
            parts
        })
        .boxed()
}

/// A conjunct that simplifies to a conjunction joins its members without
/// the repeated-conjunct check, as `simplify` flattens them: a repeated
/// disjunction joined that way doubles the expansion past the cap, so the
/// answer is "satisfiable" although every branch is refuted.
#[test]
fn flattened_repeats_count_toward_the_cap() {
    let e = mixed_env();
    let pair = member(0, 0, 0).or(member(0, 1, 0));
    let wide = Formula::Or((0..256).map(|j| member(1, j, j)).collect());
    let refuted = [
        Formula::Cmp(Expr::attr("x"), CmpOp::Lt, Expr::attr("y")),
        Formula::Cmp(Expr::attr("y"), CmpOp::Lt, Expr::attr("x")),
    ];
    let hidden_repeat = Formula::Or(vec![Formula::And(vec![
        pair.clone(),
        Formula::cmp("flag", CmpOp::Eq, true),
    ])]);
    let mut parts = vec![pair.clone(), wide.clone()];
    parts.extend(refuted.iter().cloned());
    // 2 · 256 = 512 conjuncts: decided, and refuted.
    assert!(!dnf_oracle::is_satisfiable(
        &Formula::conj(parts.clone()),
        &e
    ));
    assert!(!is_satisfiable(&Formula::conj(parts.clone()), &e));
    // The repeat simplify keeps makes 1024: past the cap.
    parts.push(hidden_repeat);
    let whole = Formula::conj(parts.clone());
    assert_eq!(dnf(&whole, 2048).map(|d| d.len()), Some(1024));
    assert!(dnf_oracle::is_satisfiable(&whole, &e));
    assert!(is_satisfiable(&whole, &e));
    let refs: Vec<&Formula> = parts.iter().collect();
    assert!(!conjunction_unsat(&refs, &e));
    let prepared: Vec<Prepared> = parts.iter().map(Prepared::new).collect();
    assert!(conjunction_satisfiable(&prepared, &e));
    // A repeat that is a conjunct of its own is dropped: 512 again.
    let mut plain = parts[..4].to_vec();
    plain.push(pair);
    let prepared: Vec<Prepared> = plain.iter().map(Prepared::new).collect();
    assert!(!conjunction_satisfiable(&prepared, &e));
    assert!(!dnf_oracle::is_satisfiable(&Formula::conj(plain), &e));
}

/// A part that is a conjunction joins conjunct by conjunct, as
/// `Formula::conj` flattens it: its conjunct repeating an earlier part is
/// dropped, so the expansion stays at 512 conjuncts and is decided.
#[test]
fn conjunction_parts_join_conjunct_by_conjunct() {
    let e = mixed_env();
    let pair = member(0, 0, 0).or(member(0, 1, 0));
    let wide = Formula::Or((0..256).map(|j| member(1, j, j)).collect());
    let parts = vec![
        pair.clone(),
        Formula::And(vec![pair, wide]),
        Formula::Cmp(Expr::attr("x"), CmpOp::Lt, Expr::attr("y")),
        Formula::Cmp(Expr::attr("y"), CmpOp::Lt, Expr::attr("x")),
    ];
    assert!(!dnf_oracle::is_satisfiable(
        &Formula::conj(parts.clone()),
        &e
    ));
    let refs: Vec<&Formula> = parts.iter().collect();
    assert!(conjunction_unsat(&refs, &e));
    let prepared: Vec<Prepared> = parts.iter().map(Prepared::new).collect();
    assert!(!conjunction_satisfiable(&prepared, &e));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lazy search gives the DNF expansion's verdict.
    #[test]
    fn satisfiability_matches_the_dnf_oracle(f in arb_mixed_formula()) {
        let e = mixed_env();
        prop_assert_eq!(
            is_satisfiable(&f, &e),
            dnf_oracle::is_satisfiable(&f, &e),
            "verdicts differ on {}", f
        );
    }

    /// Entailment, directly and on prepared parts, is the oracle's
    /// verdict on `phi ∧ ¬psi`.
    #[test]
    fn implication_matches_the_dnf_oracle(phi in arb_mixed_formula(), psi in arb_mixed_formula()) {
        let e = mixed_env();
        let expected = !dnf_oracle::is_satisfiable(&phi.clone().and(not(psi.clone())), &e);
        prop_assert_eq!(implies(&phi, &psi, &e), expected, "{} ⊨ {}", phi, psi);
        let prepared = [&Prepared::new(&phi), &Prepared::negation(&psi)];
        prop_assert_eq!(!conjunction_satisfiable(prepared, &e), expected, "{} ⊨ {}", phi, psi);
    }

    /// A conjunction of prepared parts, repeats included, gets the verdict
    /// of the conjunction of their formulas.
    #[test]
    fn prepared_conjunctions_match_the_dnf_oracle(parts in arb_parts()) {
        let e = mixed_env();
        let expected = !dnf_oracle::is_satisfiable(&Formula::conj(parts.clone()), &e);
        let refs: Vec<&Formula> = parts.iter().collect();
        prop_assert_eq!(conjunction_unsat(&refs, &e), expected, "{:?}", refs);
        let prepared: Vec<Prepared> = parts.iter().map(Prepared::new).collect();
        prop_assert_eq!(!conjunction_satisfiable(&prepared, &e), expected, "{:?}", refs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// At the cap: 511 and 512 conjuncts are decided, 513 give up as
    /// "satisfiable", exactly as the expansion does — also when the size
    /// only appears once parts are conjoined.
    #[test]
    fn cap_boundary_matches_the_dnf_oracle(case in arb_cap_boundary_formula()) {
        let (f, size) = case;
        let e = mixed_env();
        prop_assert_eq!(dnf(&f, 1024).map(|d| d.len()), Some(size), "{}", f);
        let expected = dnf_oracle::is_satisfiable(&f, &e);
        prop_assert_eq!(is_satisfiable(&f, &e), expected, "size {}", size);
        let Formula::And(conjuncts) = &f else { unreachable!("built as a conjunction") };
        let refs: Vec<&Formula> = conjuncts.iter().collect();
        prop_assert_eq!(conjunction_unsat(&refs, &e), !expected, "size {}", size);
    }
}
