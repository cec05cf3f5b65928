//! Constraint evaluation against populated databases.
//!
//! Evaluation is three-valued ([`Truth`]): comparisons involving `Null`
//! are `Unknown`, mirroring SQL-style semantics. A constraint is
//! *violated* only when it evaluates to `False` — absent attributes do
//! not trigger violations (remote objects typically lack local-only
//! attributes after integration).

use interop_model::{Database, ModelError, Object, Value, R64};

use crate::constraint::{
    ClassConstraint, ClassConstraintBody, DbConstraint, ObjectConstraint, Quantifier,
};
use crate::expr::{AggOp, ArithOp, CmpOp, Expr, Formula, Path};

/// Three-valued logic outcome, ordered `False < Unknown < True`.
///
/// Under that order Kleene's connectives are lattice operations:
/// conjunction is `min`, disjunction is `max`, and negation reflects the
/// order. A `Truth` is one byte, so a column of them is a byte per row.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Truth {
    /// Definitely false.
    False,
    /// Unknown (some input was `Null`).
    Unknown,
    /// Definitely true.
    True,
}

impl Truth {
    /// From a two-valued bool.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Three-valued conjunction: the lesser truth.
    pub fn and(self, other: Truth) -> Truth {
        self.min(other)
    }

    /// Three-valued disjunction: the greater truth.
    pub fn or(self, other: Truth) -> Truth {
        self.max(other)
    }

    /// Three-valued negation: the reflection of the order.
    #[allow(clippy::should_implement_trait)] // three-valued, not bool Not
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// Is the constraint *not violated* (true or unknown)?
    pub fn holds(self) -> bool {
        self != Truth::False
    }
}

/// Evaluates a path; the empty path yields the object reference itself.
pub fn eval_path(db: &Database, obj: &Object, p: &Path) -> Result<Value, ModelError> {
    if p.is_this() {
        return Ok(Value::Ref(obj.id));
    }
    db.navigate(obj, &p.0)
}

/// Borrowing variant of [`eval_path`]: attribute paths return a reference
/// into the object graph (no clone); only the empty `this` path must
/// materialise an owned `Ref` value. Hot joins in the merge phase hash
/// and compare through this without allocating.
pub fn eval_path_ref<'a>(
    db: &'a Database,
    obj: &'a Object,
    p: &Path,
) -> Result<std::borrow::Cow<'a, Value>, ModelError> {
    if p.is_this() {
        return Ok(std::borrow::Cow::Owned(Value::Ref(obj.id)));
    }
    db.navigate_ref(obj, &p.0).map(std::borrow::Cow::Borrowed)
}

/// Evaluates an expression given the values of its paths.
fn eval_expr_with<E>(
    e: &Expr,
    path: &mut impl FnMut(&Path) -> Result<Value, E>,
) -> Result<Value, E> {
    match e {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Attr(p) => path(p),
        Expr::Neg(inner) => {
            let v = eval_expr_with(inner, path)?;
            Ok(match v.as_num() {
                Some(n) => Value::Real(-n),
                None => Value::Null,
            })
        }
        Expr::Bin(a, op, b) => {
            let (va, vb) = (eval_expr_with(a, path)?, eval_expr_with(b, path)?);
            Ok(apply_arith(&va, *op, &vb))
        }
    }
}

fn apply_arith(a: &Value, op: ArithOp, b: &Value) -> Value {
    match (a.as_num(), b.as_num()) {
        (Some(x), Some(y)) => {
            let r = match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => {
                    if y.get() == 0.0 {
                        return Value::Null;
                    }
                    x / y
                }
            };
            Value::Real(r)
        }
        _ => Value::Null,
    }
}

/// Evaluates a formula on `obj` within `db`.
pub fn eval_formula(db: &Database, obj: &Object, f: &Formula) -> Result<Truth, ModelError> {
    eval_formula_with(f, &mut |p| eval_path(db, obj, p))
}

/// Evaluates a formula given the values of its paths. This holds the
/// value-level rules every evaluator shares; each evaluator passes its
/// own path navigation as `path` ([`eval_path`] for [`eval_formula`],
/// the integrated view's for `interop_merge`'s). The rules:
///
/// * `Cmp`: a `Null` side gives `Unknown`; incomparable values make only
///   `<>` true;
/// * `In` tests membership with [`Value::sem_eq`], so `Int(3)` is in
///   `{3.0}`;
/// * `Contains` on a `Null` gives `Unknown`, on a non-string `False`;
/// * arithmetic goes through [`Value::as_num`]: a non-numeric operand, or
///   a division by zero, gives `Null`.
///
/// `And` and `Or` stop at the first child that decides them.
pub fn eval_formula_with<E>(
    f: &Formula,
    path: &mut impl FnMut(&Path) -> Result<Value, E>,
) -> Result<Truth, E> {
    match f {
        Formula::True => Ok(Truth::True),
        Formula::False => Ok(Truth::False),
        Formula::Cmp(a, op, b) => {
            let (va, vb) = (eval_expr_with(a, path)?, eval_expr_with(b, path)?);
            if va.is_null() || vb.is_null() {
                return Ok(Truth::Unknown);
            }
            match va.compare(&vb) {
                Some(ord) => Ok(Truth::from_bool(op.test(ord))),
                None => Ok(Truth::from_bool(matches!(op, CmpOp::Ne))),
            }
        }
        Formula::In(e, set) => {
            let v = eval_expr_with(e, path)?;
            if v.is_null() {
                return Ok(Truth::Unknown);
            }
            Ok(Truth::from_bool(set.iter().any(|s| s.sem_eq(&v))))
        }
        Formula::Contains(e, needle) => {
            let v = eval_expr_with(e, path)?;
            match v {
                Value::Null => Ok(Truth::Unknown),
                Value::Str(s) => Ok(Truth::from_bool(s.contains(needle.as_str()))),
                _ => Ok(Truth::False),
            }
        }
        Formula::Not(inner) => Ok(eval_formula_with(inner, path)?.not()),
        Formula::And(fs) => {
            let mut acc = Truth::True;
            for g in fs {
                acc = acc.and(eval_formula_with(g, path)?);
                if acc == Truth::False {
                    break;
                }
            }
            Ok(acc)
        }
        Formula::Or(fs) => {
            let mut acc = Truth::False;
            for g in fs {
                acc = acc.or(eval_formula_with(g, path)?);
                if acc == Truth::True {
                    break;
                }
            }
            Ok(acc)
        }
        Formula::Implies(a, b) => {
            let ta = eval_formula_with(a, path)?;
            Ok(ta.not().or(eval_formula_with(b, path)?))
        }
    }
}

/// Checks an object constraint against every object in the class
/// extension; returns the ids of violating objects.
pub fn check_object_constraint(
    db: &Database,
    c: &ObjectConstraint,
) -> Result<Vec<interop_model::ObjectId>, ModelError> {
    let mut bad = Vec::new();
    for id in db.extension(&c.class) {
        let obj = db.object_req(id)?;
        if !eval_formula(db, obj, &c.formula)?.holds() {
            bad.push(id);
        }
    }
    Ok(bad)
}

/// Convenience: does every object constraint in `catalog` hold on `db`?
/// (Navigation errors count as violations.)
pub fn check_all_object(db: &Database, catalog: &crate::constraint::Catalog) -> bool {
    catalog
        .all_object()
        .all(|oc| matches!(check_object_constraint(db, oc), Ok(v) if v.is_empty()))
}

/// Checks a class constraint against the class extension. Returns `True`
/// when satisfied, `False` when violated, `Unknown` when aggregation hit
/// nulls only.
pub fn check_class_constraint(db: &Database, c: &ClassConstraint) -> Result<Truth, ModelError> {
    match &c.body {
        ClassConstraintBody::Key(attrs) => {
            let mut seen = std::collections::BTreeSet::new();
            for id in db.extension(&c.class) {
                let obj = db.object_req(id)?;
                let tuple: Vec<Value> = attrs.iter().map(|a| obj.get(a).clone()).collect();
                if tuple.iter().any(Value::is_null) {
                    continue;
                }
                if !seen.insert(tuple) {
                    return Ok(Truth::False);
                }
            }
            Ok(Truth::True)
        }
        ClassConstraintBody::Aggregate {
            op,
            path,
            cmp,
            bound,
        } => {
            let mut nums: Vec<R64> = Vec::new();
            let mut count = 0usize;
            for id in db.extension(&c.class) {
                let obj = db.object_req(id)?;
                count += 1;
                let v = eval_path(db, obj, path)?;
                if let Some(n) = v.as_num() {
                    nums.push(n);
                }
            }
            let agg = aggregate(*op, &nums, count);
            match agg {
                None => Ok(Truth::Unknown),
                Some(a) => {
                    let bv = match bound.as_num() {
                        Some(b) => b,
                        None => return Ok(Truth::Unknown),
                    };
                    Ok(Truth::from_bool(cmp.test(a.cmp(&bv))))
                }
            }
        }
    }
}

/// Computes an aggregate over numeric samples. `count` is the extension
/// size (used by `count` even when values are missing).
pub fn aggregate(op: AggOp, nums: &[R64], count: usize) -> Option<R64> {
    match op {
        AggOp::Count => Some(R64::from(count as i64)),
        AggOp::Sum => Some(nums.iter().copied().fold(R64::new(0.0), |a, b| a + b)),
        AggOp::Avg => {
            if nums.is_empty() {
                None
            } else {
                let sum = nums.iter().copied().fold(R64::new(0.0), |a, b| a + b);
                Some(sum / R64::from(nums.len() as i64))
            }
        }
        AggOp::Min => nums.iter().copied().min(),
        AggOp::Max => nums.iter().copied().max(),
    }
}

/// Checks a database constraint: for every outer object, the quantified
/// inner condition must hold.
pub fn check_db_constraint(db: &Database, c: &DbConstraint) -> Result<Truth, ModelError> {
    let inner_ids = db.extension(&c.inner_class);
    for oid in db.extension(&c.outer_class) {
        let outer = db.object_req(oid)?;
        let mut any = false;
        let mut all = true;
        for iid in &inner_ids {
            let inner = db.object_req(*iid)?;
            let mut matches = true;
            for atom in &c.atoms {
                let vo = eval_path(db, outer, &atom.outer)?;
                let vi = eval_path(db, inner, &atom.inner)?;
                let ok = match vi.compare(&vo) {
                    Some(ord) => atom.op.test(ord),
                    None => matches!(atom.op, CmpOp::Ne),
                };
                if !ok {
                    matches = false;
                    break;
                }
            }
            any |= matches;
            all &= matches;
        }
        let ok = match c.quant {
            Quantifier::Exists => any,
            Quantifier::Forall => all,
        };
        if !ok {
            return Ok(Truth::False);
        }
    }
    Ok(Truth::True)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ConstraintId, PairAtom};
    use interop_model::{ClassDef, ClassName, DbName, Schema, Type};

    fn db() -> Database {
        let schema = Schema::new(
            "Bookseller",
            vec![
                ClassDef::new("Publisher")
                    .attr("name", Type::Str)
                    .attr("location", Type::Str),
                ClassDef::new("Item")
                    .attr("title", Type::Str)
                    .attr("isbn", Type::Str)
                    .attr("publisher", Type::Ref(ClassName::new("Publisher")))
                    .attr("shopprice", Type::Real)
                    .attr("libprice", Type::Real),
                ClassDef::new("Proceedings")
                    .isa("Item")
                    .attr("ref?", Type::Bool)
                    .attr("rating", Type::Range(1, 10)),
            ],
        )
        .unwrap();
        Database::new(schema, 2)
    }

    fn cid(label: &str) -> ConstraintId {
        ConstraintId::new(&DbName::new("Bookseller"), &ClassName::new("Item"), label)
    }

    #[test]
    fn truth_table() {
        use Truth::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert!(Unknown.holds());
        assert!(!False.holds());
    }

    #[test]
    fn ordered_truth_is_kleene_logic() {
        use Truth::*;
        // Kleene's strong three-valued tables, rows and columns in the
        // order False, Unknown, True.
        let all = [False, Unknown, True];
        let and = [
            [False, False, False],
            [False, Unknown, Unknown],
            [False, Unknown, True],
        ];
        let or = [
            [False, Unknown, True],
            [Unknown, Unknown, True],
            [True, True, True],
        ];
        let not = [True, Unknown, False];
        // A formula of each truth: `Unknown` is a comparison on a null.
        let literal = |t: Truth| match t {
            False => Formula::False,
            Unknown => Formula::cmp("absent", CmpOp::Eq, 1i64),
            True => Formula::True,
        };
        let eval = |f: &Formula| {
            let Ok(t) =
                eval_formula_with(f, &mut |_| Ok::<_, std::convert::Infallible>(Value::Null));
            t
        };
        for (i, &a) in all.iter().enumerate() {
            assert_eq!(a.not(), not[i]);
            assert_eq!(a.not(), all[2 - i], "negation reflects the order");
            for (j, &b) in all.iter().enumerate() {
                assert_eq!(a.min(b), and[i][j], "{a:?} and {b:?}");
                assert_eq!(a.and(b), and[i][j]);
                assert_eq!(a.max(b), or[i][j], "{a:?} or {b:?}");
                assert_eq!(a.or(b), or[i][j]);
                let (fa, fb) = (literal(a), literal(b));
                assert_eq!(eval(&Formula::And(vec![fa.clone(), fb.clone()])), and[i][j]);
                assert_eq!(eval(&Formula::Or(vec![fa.clone(), fb.clone()])), or[i][j]);
                assert_eq!(
                    eval(&fa.clone().implies(fb.clone())),
                    eval(&Formula::Or(vec![Formula::Not(Box::new(fa)), fb])),
                    "{a:?} implies {b:?}"
                );
                assert_eq!(eval(&literal(a).implies(literal(b))), a.not().or(b));
            }
        }
    }

    #[test]
    fn cmp_with_ref_navigation() {
        let mut d = db();
        let p = d
            .create("Publisher", vec![("name", "IEEE".into())])
            .unwrap();
        let i = d
            .create(
                "Proceedings",
                vec![("publisher", Value::Ref(p)), ("ref?", true.into())],
            )
            .unwrap();
        let obj = d.object(i).unwrap().clone();
        // Figure 1 oc1 of Proceedings: publisher.name='IEEE' implies ref?=true
        let f = Formula::cmp("publisher.name", CmpOp::Eq, "IEEE").implies(Formula::cmp(
            "ref?",
            CmpOp::Eq,
            true,
        ));
        assert_eq!(eval_formula(&d, &obj, &f).unwrap(), Truth::True);
    }

    #[test]
    fn implication_violated() {
        let mut d = db();
        let p = d
            .create("Publisher", vec![("name", "IEEE".into())])
            .unwrap();
        let i = d
            .create(
                "Proceedings",
                vec![("publisher", Value::Ref(p)), ("ref?", false.into())],
            )
            .unwrap();
        let obj = d.object(i).unwrap().clone();
        let f = Formula::cmp("publisher.name", CmpOp::Eq, "IEEE").implies(Formula::cmp(
            "ref?",
            CmpOp::Eq,
            true,
        ));
        assert_eq!(eval_formula(&d, &obj, &f).unwrap(), Truth::False);
    }

    #[test]
    fn null_yields_unknown_and_holds() {
        let mut d = db();
        let i = d.create("Item", vec![]).unwrap();
        let obj = d.object(i).unwrap().clone();
        let f = Formula::cmp("libprice", CmpOp::Le, 10.0);
        assert_eq!(eval_formula(&d, &obj, &f).unwrap(), Truth::Unknown);
        assert!(eval_formula(&d, &obj, &f).unwrap().holds());
    }

    #[test]
    fn in_and_contains() {
        let mut d = db();
        let i = d
            .create("Item", vec![("title", "Proceedings of VLDB".into())])
            .unwrap();
        let obj = d.object(i).unwrap().clone();
        assert_eq!(
            eval_formula(
                &d,
                &obj,
                &Formula::Contains(Expr::attr("title"), "Proceed".into())
            )
            .unwrap(),
            Truth::True
        );
        assert_eq!(
            eval_formula(
                &d,
                &obj,
                &Formula::isin("title", [Value::str("Proceedings of VLDB")])
            )
            .unwrap(),
            Truth::True
        );
        assert_eq!(
            eval_formula(&d, &obj, &Formula::isin("title", [Value::str("Other")])).unwrap(),
            Truth::False
        );
    }

    #[test]
    fn arithmetic_in_constraints() {
        let mut d = db();
        let i = d
            .create(
                "Item",
                vec![("shopprice", 29.0.into()), ("libprice", 26.0.into())],
            )
            .unwrap();
        let obj = d.object(i).unwrap().clone();
        // libprice <= shopprice  (Figure 1 oc1 of Item)
        let f = Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice"));
        assert_eq!(eval_formula(&d, &obj, &f).unwrap(), Truth::True);
        // libprice * 2 > shopprice
        let g = Formula::Cmp(
            Expr::Bin(
                Box::new(Expr::attr("libprice")),
                ArithOp::Mul,
                Box::new(Expr::val(2.0)),
            ),
            CmpOp::Gt,
            Expr::attr("shopprice"),
        );
        assert_eq!(eval_formula(&d, &obj, &g).unwrap(), Truth::True);
        // Division by zero is Unknown.
        let z = Formula::Cmp(
            Expr::Bin(
                Box::new(Expr::attr("libprice")),
                ArithOp::Div,
                Box::new(Expr::val(0.0)),
            ),
            CmpOp::Gt,
            Expr::val(1.0),
        );
        assert_eq!(eval_formula(&d, &obj, &z).unwrap(), Truth::Unknown);
    }

    #[test]
    fn object_constraint_check_collects_violators() {
        let mut d = db();
        d.create(
            "Item",
            vec![("libprice", 26.0.into()), ("shopprice", 29.0.into())],
        )
        .unwrap();
        let bad = d
            .create(
                "Item",
                vec![("libprice", 35.0.into()), ("shopprice", 29.0.into())],
            )
            .unwrap();
        let c = ObjectConstraint::new(
            cid("oc1"),
            "Item",
            Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice")),
        );
        let viol = check_object_constraint(&d, &c).unwrap();
        assert_eq!(viol, vec![bad]);
    }

    #[test]
    fn object_constraint_applies_to_subclasses() {
        let mut d = db();
        let bad = d
            .create(
                "Proceedings",
                vec![("libprice", 35.0.into()), ("shopprice", 29.0.into())],
            )
            .unwrap();
        let c = ObjectConstraint::new(
            cid("oc1"),
            "Item",
            Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice")),
        );
        assert_eq!(check_object_constraint(&d, &c).unwrap(), vec![bad]);
    }

    #[test]
    fn key_constraint_detects_duplicates() {
        let mut d = db();
        d.create("Item", vec![("isbn", "X".into())]).unwrap();
        d.create("Item", vec![("isbn", "Y".into())]).unwrap();
        let c = ClassConstraint::key(cid("cc1"), "Item", vec!["isbn"]);
        assert_eq!(check_class_constraint(&d, &c).unwrap(), Truth::True);
        d.create("Item", vec![("isbn", "X".into())]).unwrap();
        assert_eq!(check_class_constraint(&d, &c).unwrap(), Truth::False);
    }

    #[test]
    fn aggregate_constraints() {
        let mut d = db();
        d.create("Item", vec![("libprice", 10.0.into())]).unwrap();
        d.create("Item", vec![("libprice", 20.0.into())]).unwrap();
        let sum = ClassConstraint::new(
            cid("cc2"),
            "Item",
            ClassConstraintBody::Aggregate {
                op: AggOp::Sum,
                path: Path::parse("libprice"),
                cmp: CmpOp::Lt,
                bound: Value::real(100.0),
            },
        );
        assert_eq!(check_class_constraint(&d, &sum).unwrap(), Truth::True);
        let avg = ClassConstraint::new(
            cid("cc3"),
            "Item",
            ClassConstraintBody::Aggregate {
                op: AggOp::Avg,
                path: Path::parse("libprice"),
                cmp: CmpOp::Lt,
                bound: Value::real(12.0),
            },
        );
        assert_eq!(check_class_constraint(&d, &avg).unwrap(), Truth::False);
    }

    #[test]
    fn aggregate_helpers() {
        let xs = [R64::new(1.0), R64::new(2.0), R64::new(3.0)];
        assert_eq!(aggregate(AggOp::Sum, &xs, 3).unwrap().get(), 6.0);
        assert_eq!(aggregate(AggOp::Avg, &xs, 3).unwrap().get(), 2.0);
        assert_eq!(aggregate(AggOp::Min, &xs, 3).unwrap().get(), 1.0);
        assert_eq!(aggregate(AggOp::Max, &xs, 3).unwrap().get(), 3.0);
        assert_eq!(aggregate(AggOp::Count, &[], 5).unwrap().get(), 5.0);
        assert!(aggregate(AggOp::Avg, &[], 0).is_none());
    }

    #[test]
    fn db_constraint_forall_exists() {
        let mut d = db();
        let p = d.create("Publisher", vec![("name", "ACM".into())]).unwrap();
        // dbl: forall p in Publisher exists i in Item | i.publisher = p
        let c = DbConstraint {
            id: ConstraintId::db_level(&DbName::new("Bookseller"), "dbl"),
            outer_class: ClassName::new("Publisher"),
            quant: Quantifier::Exists,
            inner_class: ClassName::new("Item"),
            atoms: vec![PairAtom {
                outer: Path::this(),
                op: CmpOp::Eq,
                inner: Path::parse("publisher"),
            }],
            status: crate::constraint::Status::Subjective,
        };
        // No items yet: violated.
        assert_eq!(check_db_constraint(&d, &c).unwrap(), Truth::False);
        d.create("Item", vec![("publisher", Value::Ref(p))])
            .unwrap();
        assert_eq!(check_db_constraint(&d, &c).unwrap(), Truth::True);
    }
}
