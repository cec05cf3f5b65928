//! Formula normalisation.
//!
//! The paper (§5.2.1) works with *normalised* object constraints: a
//! constraint written as a conjunction `φ₁ ∧ … ∧ φₙ` is split into `n`
//! separate constraints, so that each normalised constraint expresses one
//! correlation between property values. This module provides that split,
//! plus negation normal form (with implications expanded) and a
//! constant-folding simplifier — the preprocessing steps the solver and
//! the derivation engine rely on.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use interop_model::fx::{FxHashSet, FxHasher};
use interop_model::Value;

use crate::expr::{Expr, Formula};

/// Rewrites to negation normal form: `Implies` expanded, `Not` pushed to
/// atoms (negated comparisons flip their operator; negated `In`/
/// `Contains` stay as `Not(atom)`).
pub fn nnf(f: &Formula) -> Formula {
    nnf_inner(f, false)
}

fn nnf_inner(f: &Formula, neg: bool) -> Formula {
    match f {
        Formula::True => {
            if neg {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if neg {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::Cmp(a, op, b) => {
            if neg {
                Formula::Cmp(a.clone(), op.negate(), b.clone())
            } else {
                f.clone()
            }
        }
        Formula::In(_, _) | Formula::Contains(_, _) => {
            if neg {
                Formula::Not(Box::new(f.clone()))
            } else {
                f.clone()
            }
        }
        Formula::Not(inner) => nnf_inner(inner, !neg),
        Formula::And(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|g| nnf_inner(g, neg)).collect();
            if neg {
                Formula::Or(parts)
            } else {
                Formula::And(parts)
            }
        }
        Formula::Or(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|g| nnf_inner(g, neg)).collect();
            if neg {
                Formula::And(parts)
            } else {
                Formula::Or(parts)
            }
        }
        Formula::Implies(a, b) => {
            // a → b ≡ ¬a ∨ b
            let expanded = Formula::Or(vec![nnf_inner(a, true), nnf_inner(b, false)]);
            if neg {
                // ¬(a → b) ≡ a ∧ ¬b
                Formula::And(vec![nnf_inner(a, false), nnf_inner(b, true)])
            } else {
                expanded
            }
        }
    }
}

/// Splits a formula into the paper's normalised constraints: top-level
/// conjuncts become separate formulas. Implications are *kept intact*
/// (the paper treats `g ⇒ c` as one normalised conditional constraint).
pub fn split_conjuncts(f: &Formula) -> Vec<Formula> {
    match f {
        Formula::And(fs) => fs.iter().flat_map(split_conjuncts).collect(),
        Formula::True => Vec::new(),
        other => vec![simplify(other)],
    }
}

/// Constant folding and boolean simplification. Does not change the
/// formula's shape beyond removing trivial subformulas; NNF/DNF are
/// separate passes.
pub fn simplify(f: &Formula) -> Formula {
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
        Formula::Not(inner) => match simplify(inner) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(g) => *g,
            g => Formula::Not(Box::new(g)),
        },
        Formula::And(fs) => {
            let mut out = Children::default();
            for g in fs {
                if !out.conjoin(simplify(g)) {
                    return Formula::False;
                }
            }
            match out.items.len() {
                0 => Formula::True,
                1 => out.items.pop().expect("len checked"),
                _ => Formula::And(out.items),
            }
        }
        Formula::Or(fs) => {
            let mut out = Children::default();
            for g in fs {
                match simplify(g) {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    Formula::Or(inner) => out.extend_unchecked(inner),
                    g => out.push_new(g),
                }
            }
            match out.items.len() {
                0 => Formula::False,
                1 => out.items.pop().expect("len checked"),
                _ => Formula::Or(out.items),
            }
        }
        Formula::Implies(a, b) => match (simplify(a), simplify(b)) {
            (Formula::True, b) => b,
            (Formula::False, _) => Formula::True,
            (_, Formula::True) => Formula::True,
            (a, Formula::False) => simplify(&Formula::Not(Box::new(a))),
            (a, b) => Formula::Implies(Box::new(a), Box::new(b)),
        },
    }
}

/// The children of a simplified `And` or `Or`. A child already present
/// is dropped; the linear search for it runs only when the child's hash
/// is already in `hashes`, so a long conjunction simplifies in expected
/// linear time. The members of a nested `And`/`Or` are flattened in
/// unchecked, but are hashed so later children are checked against them.
///
/// [`simplify`] owns its children; the solver joins the borrowed
/// conjuncts of formulas it normalised earlier under the same rule,
/// [`Children::conjoin`].
pub(crate) struct Children<F> {
    pub(crate) items: Vec<F>,
    hashes: FxHashSet<u64>,
}

impl<F> Default for Children<F> {
    fn default() -> Self {
        Children {
            items: Vec::new(),
            hashes: FxHashSet::default(),
        }
    }
}

impl<F: Child> Children<F> {
    /// Adds `g`, a simplified conjunct, to a conjunction: `True` is
    /// dropped and the members of an `And` are flattened in. Returns
    /// `false` when `g` is `False`, which makes the conjunction `False`.
    pub(crate) fn conjoin(&mut self, g: F) -> bool {
        match g.borrow() {
            Formula::True => return true,
            Formula::False => return false,
            _ => {}
        }
        match g.into_conjuncts() {
            Ok(members) => self.extend_unchecked(members),
            Err(g) => self.push_new(g),
        }
        true
    }

    fn push_new(&mut self, g: F) {
        if self.hashes.insert(fx_hash(g.borrow()))
            || !self.items.iter().any(|x| x.borrow() == g.borrow())
        {
            self.items.push(g);
        }
    }

    fn extend_unchecked(&mut self, gs: impl IntoIterator<Item = F>) {
        for g in gs {
            self.hashes.insert(fx_hash(g.borrow()));
            self.items.push(g);
        }
    }
}

/// A simplified formula as [`Children`] holds it, owned or borrowed.
pub(crate) trait Child: Borrow<Formula> + Sized {
    /// The members of a conjunction; any other formula is returned as is.
    fn into_conjuncts(self) -> Result<impl IntoIterator<Item = Self>, Self>;
}

impl Child for Formula {
    fn into_conjuncts(self) -> Result<impl IntoIterator<Item = Self>, Self> {
        match self {
            Formula::And(members) => Ok(members),
            g => Err(g),
        }
    }
}

impl Child for &Formula {
    fn into_conjuncts(self) -> Result<impl IntoIterator<Item = Self>, Self> {
        match self {
            Formula::And(members) => Ok(members),
            g => Err(g),
        }
    }
}

fn fx_hash(f: &Formula) -> u64 {
    let mut h = FxHasher::default();
    f.hash(&mut h);
    h.finish()
}

/// Folds constant arithmetic inside an expression.
pub fn fold_expr(e: &Expr) -> Expr {
    match e {
        Expr::Const(_) | Expr::Attr(_) => e.clone(),
        Expr::Neg(inner) => {
            let inner = fold_expr(inner);
            if let Some(v) = inner.as_const().and_then(Value::as_num) {
                Expr::Const(Value::Real(-v))
            } else {
                Expr::Neg(Box::new(inner))
            }
        }
        Expr::Bin(a, op, b) => {
            let (a, b) = (fold_expr(a), fold_expr(b));
            if let (Some(x), Some(y)) = (
                a.as_const().and_then(Value::as_num),
                b.as_const().and_then(Value::as_num),
            ) {
                use crate::expr::ArithOp::*;
                let r = match op {
                    Add => Some(x + y),
                    Sub => Some(x - y),
                    Mul => Some(x * y),
                    Div => {
                        if y.get() == 0.0 {
                            None
                        } else {
                            Some(x / y)
                        }
                    }
                };
                if let Some(r) = r {
                    return Expr::Const(Value::Real(r));
                }
            }
            Expr::Bin(Box::new(a), *op, Box::new(b))
        }
    }
}

/// Disjunctive normal form: a vector of conjunctions of atomic formulas.
/// Implications are expanded via NNF first. `cap` bounds the number of
/// conjuncts produced; `None` is returned when the bound is exceeded
/// (callers treat this as "unknown" — conservative).
pub fn dnf(f: &Formula, cap: usize) -> Option<Vec<Vec<Formula>>> {
    fn go(f: &Formula, cap: usize) -> Option<Vec<Vec<Formula>>> {
        match f {
            Formula::True => Some(vec![vec![]]),
            Formula::False => Some(vec![]),
            Formula::And(fs) => {
                let mut acc: Vec<Vec<Formula>> = vec![vec![]];
                for g in fs {
                    let d = go(g, cap)?;
                    let mut next = Vec::new();
                    for conj in &acc {
                        for dconj in &d {
                            let mut merged = conj.clone();
                            merged.extend(dconj.iter().cloned());
                            next.push(merged);
                            if next.len() > cap {
                                return None;
                            }
                        }
                    }
                    acc = next;
                }
                Some(acc)
            }
            Formula::Or(fs) => {
                let mut acc = Vec::new();
                for g in fs {
                    acc.extend(go(g, cap)?);
                    if acc.len() > cap {
                        return None;
                    }
                }
                Some(acc)
            }
            atom => Some(vec![vec![atom.clone()]]),
        }
    }
    go(&simplify(&nnf(f)), cap)
}

/// The number of conjuncts in the DNF expansion of `f` as it stands,
/// counted without building them, or `None` past `cap`, with [`dnf`]'s
/// own give-up rule: so `dnf_size(&simplify(&nnf(f)), cap)` is
/// `dnf(f, cap).map(|d| d.len())`.
pub(crate) fn dnf_size(f: &Formula, cap: usize) -> Option<usize> {
    match f {
        Formula::True => Some(1),
        Formula::False => Some(0),
        Formula::And(fs) => conjunction_size(fs, cap),
        Formula::Or(fs) => fs.iter().try_fold(0, |acc: usize, g| {
            Some(acc.checked_add(dnf_size(g, cap)?)?).filter(|&n| n <= cap)
        }),
        _ => Some(1),
    }
}

/// [`dnf_size`] of the conjunction of `fs`.
pub(crate) fn conjunction_size<'f>(
    fs: impl IntoIterator<Item = &'f Formula>,
    cap: usize,
) -> Option<usize> {
    fs.into_iter().try_fold(1, |acc: usize, g| {
        acc.checked_mul(dnf_size(g, cap)?).filter(|&n| n <= cap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ArithOp, CmpOp};

    #[test]
    fn nnf_expands_implication() {
        let f =
            Formula::cmp("ref?", CmpOp::Eq, true).implies(Formula::cmp("rating", CmpOp::Ge, 7i64));
        let n = nnf(&f);
        assert_eq!(n.to_string(), "ref? <> true or rating >= 7");
    }

    #[test]
    fn nnf_negates_comparisons() {
        let f = Formula::Not(Box::new(Formula::cmp("rating", CmpOp::Ge, 4i64)));
        assert_eq!(nnf(&f).to_string(), "rating < 4");
    }

    #[test]
    fn nnf_de_morgan() {
        let f = Formula::Not(Box::new(
            Formula::cmp("a", CmpOp::Eq, 1i64).and(Formula::cmp("b", CmpOp::Eq, 2i64)),
        ));
        assert_eq!(nnf(&f).to_string(), "a <> 1 or b <> 2");
    }

    #[test]
    fn nnf_negated_implication() {
        let f = Formula::Not(Box::new(
            Formula::cmp("g", CmpOp::Eq, true).implies(Formula::cmp("x", CmpOp::Ge, 5i64)),
        ));
        assert_eq!(nnf(&f).to_string(), "g = true and x < 5");
    }

    #[test]
    fn split_paper_normalisation() {
        // φ₁ ∧ φ₂ ∧ (g ⇒ c) splits into three normalised constraints.
        let f = Formula::cmp("a", CmpOp::Ge, 1i64)
            .and(Formula::cmp("b", CmpOp::Le, 2i64))
            .and(Formula::cmp("g", CmpOp::Eq, true).implies(Formula::cmp("c", CmpOp::Ge, 3i64)));
        let parts = split_conjuncts(&f);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2].to_string(), "g = true implies c >= 3");
    }

    #[test]
    fn simplify_folds_constants() {
        let f = Formula::Cmp(Expr::val(3i64), CmpOp::Lt, Expr::val(5i64));
        assert_eq!(simplify(&f), Formula::True);
        let g = Formula::Cmp(
            Expr::Bin(
                Box::new(Expr::val(2i64)),
                ArithOp::Mul,
                Box::new(Expr::val(3i64)),
            ),
            CmpOp::Eq,
            Expr::val(6i64),
        );
        assert_eq!(simplify(&g), Formula::True);
    }

    #[test]
    fn simplify_prunes_boolean_structure() {
        let a = Formula::cmp("x", CmpOp::Ge, 1i64);
        let f = a.clone().and(Formula::True).and(a.clone());
        assert_eq!(simplify(&f), a);
        let g = Formula::Or(vec![Formula::False, a.clone()]);
        assert_eq!(simplify(&g), a);
        let h = Formula::Implies(Box::new(Formula::True), Box::new(a.clone()));
        assert_eq!(simplify(&h), a);
        let dn = Formula::Not(Box::new(Formula::Not(Box::new(a.clone()))));
        assert_eq!(simplify(&dn), a);
    }

    #[test]
    fn simplify_in_and_contains() {
        let f = Formula::In(
            Expr::val(10i64),
            [Value::int(10), Value::int(20)].into_iter().collect(),
        );
        assert_eq!(simplify(&f), Formula::True);
        let g = Formula::In(Expr::attr("x"), std::collections::BTreeSet::new());
        assert_eq!(simplify(&g), Formula::False);
        let h = Formula::Contains(Expr::val("Proceedings of VLDB"), "Proceed".into());
        assert_eq!(simplify(&h), Formula::True);
    }

    #[test]
    fn dnf_small_formula() {
        let f = Formula::cmp("g", CmpOp::Eq, true).implies(Formula::cmp("x", CmpOp::Ge, 5i64));
        let d = dnf(&f, 64).unwrap();
        // ¬g ∨ x>=5 → two conjuncts of one atom each.
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].len(), 1);
    }

    #[test]
    fn dnf_distributes_and_over_or() {
        let f = Formula::cmp("a", CmpOp::Eq, 1i64)
            .or(Formula::cmp("b", CmpOp::Eq, 2i64))
            .and(Formula::cmp("c", CmpOp::Eq, 3i64).or(Formula::cmp("d", CmpOp::Eq, 4i64)));
        let d = dnf(&f, 64).unwrap();
        assert_eq!(d.len(), 4);
        assert!(d.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn dnf_cap_exceeded_returns_none() {
        // (a∨b) ∧ (c∨d) ∧ (e∨f) = 8 conjuncts > cap 4.
        let cl = |n: &str| Formula::cmp(n, CmpOp::Eq, 1i64).or(Formula::cmp(n, CmpOp::Eq, 2i64));
        let f = cl("a").and(cl("b")).and(cl("c"));
        assert!(dnf(&f, 4).is_none());
        assert!(dnf(&f, 64).is_some());
    }

    #[test]
    fn dnf_of_false_is_empty() {
        assert_eq!(dnf(&Formula::False, 8).unwrap().len(), 0);
        assert_eq!(dnf(&Formula::True, 8).unwrap(), vec![Vec::<Formula>::new()]);
    }

    #[test]
    fn dnf_size_counts_what_dnf_builds() {
        let cl = |n: &str| Formula::cmp(n, CmpOp::Eq, 1i64).or(Formula::cmp(n, CmpOp::Eq, 2i64));
        let three = |n: &str| {
            Formula::Or(vec![
                Formula::cmp(n, CmpOp::Eq, 1i64),
                Formula::cmp(n, CmpOp::Eq, 2i64),
                Formula::cmp(n, CmpOp::Eq, 3i64),
            ])
        };
        let x = Formula::cmp("x", CmpOp::Ge, 1i64);
        let cases = [
            Formula::True,
            Formula::False,
            x.clone(),
            cl("a").and(cl("b")).and(cl("c")),
            cl("a").and(x.clone()).or(three("b").and(cl("c"))),
            // A repeated disjunction flattened in unchecked still counts twice.
            cl("a").and(cl("a").and(x.clone())),
            Formula::Not(Box::new(cl("a").and(three("b")))),
            three("a").and(three("b")).and(three("c")),
        ];
        for f in &cases {
            let normal = simplify(&nnf(f));
            for cap in [0, 1, 2, 3, 4, 5, 8, 9, 12, 26, 27, 28, 64] {
                assert_eq!(
                    dnf_size(&normal, cap),
                    dnf(f, cap).map(|d| d.len()),
                    "{f} at cap {cap}"
                );
            }
        }
    }
}
