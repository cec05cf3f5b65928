//! Satisfiability and implication for the paper's constraint fragment.
//!
//! The decision procedure handles boolean combinations of:
//!
//! * unary atoms — an affine function of one attribute path compared
//!   against a constant, or finite-set membership (`rating >= 4`,
//!   `trav_reimb in {10,20}`, `2*rating - 1 <= 9`);
//! * binary atoms — two paths compared (`libprice <= shopprice`), handled
//!   by a difference-bound system with strictness-aware negative-cycle
//!   detection;
//! * substring atoms (`contains(title, 'Proceed')`), refutable when the
//!   path's domain is a finite string set or numeric (no number contains
//!   a substring) or when contradictory `contains`/`not contains` pairs
//!   occur.
//!
//! Everything else is treated as *opaque* and dropped, which
//! over-approximates the solution set. Consequently [`is_satisfiable`]
//! means "not provably unsatisfiable" and [`implies`] returns `true` only
//! for *proven* entailments — exactly the conservative behaviour the
//! paper's conflict detection (`Ω̂ ⊨ false`) and strict-similarity check
//! (`Ω' ⊨ Ω̂`, §5.2.1) require.
//!
//! **Contract.** A verdict is the one the DNF expansion of the formula
//! gives when it has at most [`DNF_CAP`] conjuncts: satisfiable iff some
//! conjunct survives the per-conjunct theory check. Past the cap the
//! answer is "satisfiable".
//!
//! **Mechanism.** The expansion is never built. The formula is normalised
//! once (`simplify(nnf(f))`), its expansion counted without building it,
//! and searched depth-first: atoms are asserted into the branch's theory
//! state on the way down, a branch is dropped as soon as that state is
//! dead (an emptied domain), the full check runs once per complete
//! branch, and the search stops at the first consistent one. A
//! [`Prepared`] formula is normalised once for many questions;
//! [`conjunction_satisfiable`] joins prepared parts under `simplify`'s own
//! rule for a conjunction, so its verdict and its cap are those of the
//! conjunction of their formulas. [`conjunction_witness`] searches the
//! same expansion without the size gate, for at most [`DNF_CAP`]
//! branches, and a branch it finds answers "satisfiable" for every subset
//! of the parts at once (the theory check is monotone). Only [`project`]
//! still expands to DNF.

use std::collections::{BTreeMap, BTreeSet};

use interop_model::{Type, Value, R64};

use crate::domain::{DiscSet, Domain, NumSet};
use crate::expr::{ArithOp, CmpOp, Expr, Formula, Path};
use crate::normalize::{conjunction_size, dnf, nnf, simplify, Children};

/// Cap on the DNF size the solver decides; past it the answer is
/// "satisfiable" ("unknown", in the conservative direction).
pub const DNF_CAP: usize = 512;

/// Types of the attribute paths a formula may mention. Paths absent from
/// the environment get an unconstrained discrete domain.
#[derive(Clone, Debug, Default)]
pub struct TypeEnv {
    types: BTreeMap<Path, Type>,
}

impl TypeEnv {
    /// Empty environment.
    pub fn new() -> Self {
        TypeEnv::default()
    }

    /// Registers a path's type.
    pub fn insert(&mut self, path: Path, ty: Type) {
        self.types.insert(path, ty);
    }

    /// Builder-style registration.
    pub fn with(mut self, path: &str, ty: Type) -> Self {
        self.insert(Path::parse(path), ty);
        self
    }

    /// Looks up a path's type.
    pub fn get(&self, path: &Path) -> Option<&Type> {
        self.types.get(path)
    }

    /// The base domain of a path: its type's full domain, or an
    /// unconstrained discrete domain when the type is unknown.
    pub fn base_domain(&self, path: &Path) -> Domain {
        match self.types.get(path) {
            Some(ty) => Domain::full_of(ty),
            None => Domain::Disc(DiscSet::full()),
        }
    }

    /// Is the path known to carry an integral numeric type?
    pub fn integral(&self, path: &Path) -> bool {
        matches!(self.types.get(path), Some(Type::Int | Type::Range(_, _)))
    }

    /// Is the path numeric (int, real, or range)?
    pub fn numeric(&self, path: &Path) -> bool {
        self.types.get(path).is_some_and(Type::is_numeric)
    }

    /// Builds the environment of all paths reachable from `class` in
    /// `schema`: every visible attribute, and — for reference attributes —
    /// the referenced class's attributes one level deep (`publisher.name`).
    /// One level suffices for the paper's fragment; deeper paths simply
    /// stay untyped (unconstrained), which is conservative.
    pub fn for_class(schema: &interop_model::Schema, class: &interop_model::ClassName) -> Self {
        let mut env = TypeEnv::new();
        for attr in schema.all_attrs(class) {
            let head = Path::attr(attr.name.clone());
            env.insert(head.clone(), attr.ty.clone());
            if let Type::Ref(target) = &attr.ty {
                for inner in schema.all_attrs(target) {
                    let mut segs = head.0.clone();
                    segs.push(inner.name.clone());
                    env.insert(Path(segs), inner.ty.clone());
                }
            }
        }
        env
    }

    /// Iterates over all registered paths and types.
    pub fn iter(&self) -> impl Iterator<Item = (&Path, &Type)> {
        self.types.iter()
    }
}

/// An affine view of an expression: `coeff · path + offset` (path may be
/// absent for pure constants).
struct Lin<'e> {
    coeff: R64,
    path: Option<&'e Path>,
    offset: R64,
}

fn linearize(e: &Expr) -> Option<Lin<'_>> {
    match e {
        Expr::Const(v) => Some(Lin {
            coeff: R64::new(0.0),
            path: None,
            offset: v.as_num()?,
        }),
        Expr::Attr(p) => Some(Lin {
            coeff: R64::new(1.0),
            path: Some(p),
            offset: R64::new(0.0),
        }),
        Expr::Neg(inner) => {
            let l = linearize(inner)?;
            Some(Lin {
                coeff: -l.coeff,
                path: l.path,
                offset: -l.offset,
            })
        }
        Expr::Bin(a, op, b) => {
            let (la, lb) = (linearize(a)?, linearize(b)?);
            match op {
                ArithOp::Add | ArithOp::Sub => {
                    let sign = if *op == ArithOp::Add {
                        R64::new(1.0)
                    } else {
                        R64::new(-1.0)
                    };
                    match (&la.path, &lb.path) {
                        (_, None) => Some(Lin {
                            coeff: la.coeff,
                            path: la.path,
                            offset: la.offset + sign * lb.offset,
                        }),
                        (None, _) => Some(Lin {
                            coeff: sign * lb.coeff,
                            path: lb.path,
                            offset: la.offset + sign * lb.offset,
                        }),
                        (Some(p), Some(q)) if p == q => Some(Lin {
                            coeff: la.coeff + sign * lb.coeff,
                            path: Some(*p),
                            offset: la.offset + sign * lb.offset,
                        }),
                        _ => None, // two distinct paths: not unary-affine
                    }
                }
                ArithOp::Mul => {
                    if lb.path.is_none() && lb.coeff.get() == 0.0 {
                        Some(Lin {
                            coeff: la.coeff * lb.offset,
                            path: la.path,
                            offset: la.offset * lb.offset,
                        })
                    } else if la.path.is_none() && la.coeff.get() == 0.0 {
                        Some(Lin {
                            coeff: lb.coeff * la.offset,
                            path: lb.path,
                            offset: lb.offset * la.offset,
                        })
                    } else {
                        None
                    }
                }
                ArithOp::Div => {
                    if lb.path.is_none() && lb.coeff.get() == 0.0 && lb.offset.get() != 0.0 {
                        Some(Lin {
                            coeff: la.coeff / lb.offset,
                            path: la.path,
                            offset: la.offset / lb.offset,
                        })
                    } else {
                        None
                    }
                }
            }
        }
    }
}

/// The theory state of one branch: the atoms asserted along it, by path.
///
/// Atoms are asserted one at a time. `restrict` narrows a path's domain
/// at once, and `dead` records eagerly that the branch is already
/// refuted: an emptied domain, a false constant comparison, a `False`
/// atom. No further atom revives a dead state, so the search drops the
/// branch there. The rest of the refutation (equalities, disequalities,
/// `contains` filters, difference bounds) is [`Conj::unsat`], run once
/// on each complete branch.
#[derive(Clone)]
struct Conj {
    domains: BTreeMap<Path, Domain>,
    /// `p - q <= c` (strict when the flag is set).
    diffs: Vec<(Path, Path, R64, bool)>,
    /// Discrete equalities / disequalities between paths.
    eqs: Vec<(Path, Path)>,
    neqs: Vec<(Path, Path)>,
    contains_pos: Vec<(Path, String)>,
    contains_neg: Vec<(Path, String)>,
    /// Proven false already.
    dead: bool,
}

impl Conj {
    fn new() -> Self {
        Conj {
            domains: BTreeMap::new(),
            diffs: Vec::new(),
            eqs: Vec::new(),
            neqs: Vec::new(),
            contains_pos: Vec::new(),
            contains_neg: Vec::new(),
            dead: false,
        }
    }

    fn domain_mut(&mut self, env: &TypeEnv, p: &Path) -> &mut Domain {
        self.domains
            .entry(p.clone())
            .or_insert_with(|| env.base_domain(p))
    }

    /// Narrows the path's domain — its type's domain when the branch has
    /// none yet — to `d`.
    fn restrict(&mut self, env: &TypeEnv, p: &Path, d: &Domain) {
        let emptied = match self.domains.get_mut(p) {
            Some(cur) => {
                *cur = cur.intersect(d);
                cur.is_empty()
            }
            None => {
                let cur = env.base_domain(p).intersect(d);
                let empty = cur.is_empty();
                self.domains.insert(p.clone(), cur);
                empty
            }
        };
        if emptied {
            self.dead = true;
        }
    }

    #[allow(clippy::collapsible_match)] // the outer match arms document the atom taxonomy
    fn add_atom(&mut self, env: &TypeEnv, atom: &Formula) {
        match atom {
            Formula::True => {}
            Formula::False => self.dead = true,
            Formula::Cmp(a, op, b) => self.add_cmp(env, a, *op, b),
            Formula::In(e, set) => {
                if let Some(l) = linearize(e) {
                    if let Some(p) = l.path {
                        // Solve coeff·p + offset ∈ set for p where possible.
                        if l.coeff.get() != 0.0 {
                            let mut pre = BTreeSet::new();
                            let mut all_num = true;
                            for v in set {
                                match v.as_num() {
                                    Some(n) => {
                                        pre.insert(Value::Real((n - l.offset) / l.coeff));
                                    }
                                    None => all_num = false,
                                }
                            }
                            if all_num {
                                let d = Domain::from_values(&pre, env.integral(p));
                                self.restrict(env, p, &d);
                                return;
                            }
                        }
                    }
                }
                if let Expr::Attr(p) = e {
                    let d = set_domain(env, p, set);
                    self.restrict(env, p, &d);
                }
                // Otherwise opaque: drop (over-approximation).
            }
            Formula::Contains(e, s) => {
                if let Expr::Attr(p) = e {
                    self.contains_pos.push((p.clone(), s.clone()));
                }
            }
            Formula::Not(inner) => match &**inner {
                Formula::In(e, set) => {
                    if let Expr::Attr(p) = e {
                        let d = match set_domain(env, p, set) {
                            Domain::Num(n) => Domain::Num(n.complement()),
                            Domain::Disc(d) => Domain::Disc(d.complement()),
                        };
                        self.restrict(env, p, &d);
                    }
                }
                Formula::Contains(e, s) => {
                    if let Expr::Attr(p) = e {
                        self.contains_neg.push((p.clone(), s.clone()));
                    }
                }
                _ => {} // NNF leaves Not only on In/Contains.
            },
            // And/Or/Implies do not reach atoms after DNF.
            _ => {}
        }
    }

    fn add_cmp(&mut self, env: &TypeEnv, a: &Expr, op: CmpOp, b: &Expr) {
        // Try the affine route first: la op lb with at most one path per
        // side (same path allowed on both).
        if let (Some(la), Some(lb)) = (linearize(a), linearize(b)) {
            match (la.path, lb.path) {
                (Some(p), None) | (None, Some(p)) => {
                    // coeff·p + off op const  (or reversed)
                    let (coeff, off, konst, op) = if la.path.is_some() {
                        (la.coeff, la.offset, lb.offset, op)
                    } else {
                        (lb.coeff, lb.offset, la.offset, op.flip())
                    };
                    if coeff.get() == 0.0 {
                        // Degenerate: constant vs constant.
                        let ord = off.cmp(&konst);
                        if !op.test(ord) {
                            self.dead = true;
                        }
                        return;
                    }
                    let rhs = (konst - off) / coeff;
                    let op = if coeff.get() < 0.0 { op.flip() } else { op };
                    let d = Domain::Num(NumSet::from_cmp(env.integral(p), op, rhs));
                    self.restrict(env, p, &d);
                    return;
                }
                (Some(p), Some(q)) if p != q => {
                    // Difference form requires matching unit coefficients.
                    if la.coeff == lb.coeff && la.coeff.get() == 1.0 {
                        let c = lb.offset - la.offset; // p - q op c
                        match op {
                            CmpOp::Le => self.diffs.push((p.clone(), q.clone(), c, false)),
                            CmpOp::Lt => self.diffs.push((p.clone(), q.clone(), c, true)),
                            CmpOp::Ge => self.diffs.push((q.clone(), p.clone(), -c, false)),
                            CmpOp::Gt => self.diffs.push((q.clone(), p.clone(), -c, true)),
                            CmpOp::Eq => {
                                self.diffs.push((p.clone(), q.clone(), c, false));
                                self.diffs.push((q.clone(), p.clone(), -c, false));
                                if c.get() == 0.0 {
                                    // `p = q` also joins their domains,
                                    // which the DBM ignores off numbers.
                                    self.eqs.push((p.clone(), q.clone()));
                                }
                            }
                            CmpOp::Ne => self.neqs.push((p.clone(), q.clone())),
                        }
                        return;
                    }
                }
                (Some(p), Some(_)) => {
                    // Same path both sides: (c1-c2)·p op (off2-off1).
                    let coeff = la.coeff - lb.coeff;
                    let konst = lb.offset - la.offset;
                    if coeff.get() == 0.0 {
                        if !op.test(R64::new(0.0).cmp(&konst)) {
                            self.dead = true;
                        }
                        return;
                    }
                    let rhs = konst / coeff;
                    let op = if coeff.get() < 0.0 { op.flip() } else { op };
                    let d = Domain::Num(NumSet::from_cmp(env.integral(p), op, rhs));
                    self.restrict(env, p, &d);
                    return;
                }
                (None, None) => {
                    if !op.test(la.offset.cmp(&lb.offset)) {
                        self.dead = true;
                    }
                    return;
                }
            }
        }
        // Non-numeric path-vs-const or path-vs-path comparisons.
        match (a, b) {
            (Expr::Attr(p), Expr::Const(v)) | (Expr::Const(v), Expr::Attr(p)) => {
                let op = if matches!(a, Expr::Const(_)) {
                    op.flip()
                } else {
                    op
                };
                match op {
                    CmpOp::Eq => {
                        let d = Domain::from_values(
                            &[v.clone()].into_iter().collect(),
                            env.integral(p),
                        );
                        self.restrict(env, p, &d);
                    }
                    CmpOp::Ne => {
                        let d = Domain::Disc(DiscSet::NotIn([v.clone()].into_iter().collect()));
                        self.restrict(env, p, &d);
                    }
                    _ => {} // string ordering: opaque
                }
            }
            (Expr::Attr(p), Expr::Attr(q)) => match op {
                CmpOp::Eq => self.eqs.push((p.clone(), q.clone())),
                CmpOp::Ne => self.neqs.push((p.clone(), q.clone())),
                _ => {}
            },
            _ => {} // opaque
        }
    }

    /// Full per-conjunct unsatisfiability check.
    fn unsat(mut self, env: &TypeEnv) -> bool {
        if self.dead {
            return true;
        }
        // Discrete equalities: union-find by repeated propagation (small n).
        let eqs = std::mem::take(&mut self.eqs);
        for _ in 0..=eqs.len() {
            let mut changed = false;
            for (p, q) in &eqs {
                let dp = self.domain_mut(env, p).clone();
                let dq = self.domain_mut(env, q).clone();
                let joint = dp.intersect(&dq);
                if joint != dp || joint != dq {
                    changed = true;
                }
                self.restrict(env, p, &joint);
                self.restrict(env, q, &joint);
                if self.dead {
                    return true;
                }
            }
            if !changed {
                break;
            }
        }
        // Disequalities: refutable when both sides are the same singleton.
        let neqs = std::mem::take(&mut self.neqs);
        for (p, q) in &neqs {
            let sp = singleton(self.domain_mut(env, p));
            let sq = singleton(self.domain_mut(env, q));
            if let (Some(a), Some(b)) = (sp, sq) {
                if a.sem_eq(&b) {
                    return true;
                }
            }
        }
        // Contains filters.
        let pos = std::mem::take(&mut self.contains_pos);
        let neg = std::mem::take(&mut self.contains_neg);
        for (p, s) in &pos {
            if neg.iter().any(|(q, t)| q == p && t == s) {
                return true; // contains(x,s) ∧ ¬contains(x,s)
            }
            // No number contains a substring (evaluation makes the atom
            // `False`): a numeric domain is refuted, as the numbers of a
            // finite set are filtered out, so a value set the filter
            // refutes stays refuted when an intersection turns it
            // numeric. A numeric domain meets every `not contains`.
            let dom = self.domain_mut(env, p).clone();
            match &dom {
                Domain::Num(_) => return true,
                Domain::Disc(DiscSet::In(vals)) => {
                    let filtered: BTreeSet<Value> = vals
                        .iter()
                        .filter(|v| v.as_str().is_some_and(|x| x.contains(s.as_str())))
                        .cloned()
                        .collect();
                    self.restrict(env, p, &Domain::Disc(DiscSet::In(filtered)));
                    if self.dead {
                        return true;
                    }
                }
                Domain::Disc(DiscSet::NotIn(_)) => {}
            }
        }
        for (p, s) in &neg {
            let dom = self.domain_mut(env, p).clone();
            if let Domain::Disc(DiscSet::In(vals)) = &dom {
                let filtered: BTreeSet<Value> = vals
                    .iter()
                    .filter(|v| !v.as_str().is_some_and(|x| x.contains(s.as_str())))
                    .cloned()
                    .collect();
                self.restrict(env, p, &Domain::Disc(DiscSet::In(filtered)));
                if self.dead {
                    return true;
                }
            }
        }
        if self.domains.values().any(Domain::is_empty) {
            return true;
        }
        // Difference-bound system with strictness-aware negative cycles.
        self.dbm_unsat(env)
    }

    fn dbm_unsat(&mut self, env: &TypeEnv) -> bool {
        if self.diffs.is_empty() {
            return false;
        }
        // Node universe: paths in diffs plus a ZERO node (index 0).
        let mut idx: BTreeMap<&Path, usize> = BTreeMap::new();
        for (p, q, _, _) in &self.diffs {
            let n = idx.len() + 1;
            idx.entry(p).or_insert(n);
            let n = idx.len() + 1;
            idx.entry(q).or_insert(n);
        }
        let n = idx.len() + 1;
        // Edge (u → v, w): x_v - x_u ≤ w.
        let mut edges: Vec<(usize, usize, R64, bool)> = Vec::new();
        for (p, q, c, strict) in &self.diffs {
            // p - q ≤ c: edge q → p with weight c.
            edges.push((idx[q], idx[p], *c, *strict));
        }
        // Unary hull bounds as edges to/from ZERO. (Relaxation of a union
        // domain to its hull — sound for unsat detection.)
        for (p, i) in &idx {
            let dom = self
                .domains
                .get(*p)
                .cloned()
                .unwrap_or_else(|| env.base_domain(p));
            if let Domain::Num(ns) = dom {
                if let Some(first) = ns.intervals().first() {
                    match first.lo {
                        crate::domain::Bnd::Incl(v) => edges.push((*i, 0, -v, false)),
                        crate::domain::Bnd::Excl(v) => edges.push((*i, 0, -v, true)),
                        _ => {}
                    }
                }
                if let Some(last) = ns.intervals().last() {
                    match last.hi {
                        crate::domain::Bnd::Incl(v) => edges.push((0, *i, v, false)),
                        crate::domain::Bnd::Excl(v) => edges.push((0, *i, v, true)),
                        _ => {}
                    }
                }
            }
        }
        // Bellman-Ford from a virtual source (all distances 0). A strict
        // edge behaves like weight `c - ε`; distances carry an ε-count so
        // that an all-strict zero-weight cycle keeps relaxing and is
        // detected like any negative cycle.
        let mut dist: Vec<(R64, u32)> = vec![(R64::new(0.0), 0); n];
        let tighter =
            |a: (R64, u32), b: (R64, u32)| -> bool { a.0 < b.0 || (a.0 == b.0 && a.1 > b.1) };
        for round in 0..=n {
            let mut changed = false;
            for (u, v, w, s) in &edges {
                let cand = (dist[*u].0 + *w, dist[*u].1 + u32::from(*s));
                if tighter(cand, dist[*v]) {
                    dist[*v] = cand;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
            if round == n {
                return true; // still relaxing after n+1 passes → negative cycle
            }
        }
        false
    }
}

/// The domain of path `p` that the values of `set` give. A set mixing
/// numbers with other values gives a discrete set, in which `3` and `3.0`
/// would be two members though evaluation compares them equal, so its
/// numbers are taken as reals first; the intersections then meet on
/// them whichever form each set wrote.
fn set_domain(env: &TypeEnv, p: &Path, set: &BTreeSet<Value>) -> Domain {
    match Domain::from_values(set, env.integral(p)) {
        Domain::Disc(_) if set.iter().any(|v| matches!(v, Value::Int(_))) => {
            let reals: BTreeSet<Value> = set
                .iter()
                .map(|v| v.as_num().map_or_else(|| v.clone(), Value::Real))
                .collect();
            Domain::from_values(&reals, env.integral(p))
        }
        d => d,
    }
}

fn singleton(d: &Domain) -> Option<Value> {
    match d {
        Domain::Num(n) => {
            let pts = n.enumerate(1)?;
            if pts.len() == 1 {
                Some(Value::Real(pts[0]))
            } else {
                None
            }
        }
        Domain::Disc(DiscSet::In(s)) if s.len() == 1 => s.iter().next().cloned(),
        _ => None,
    }
}

/// Is the formula satisfiable? Returns `true` when satisfiability cannot
/// be ruled out (over-approximation: opaque atoms are dropped, and an
/// expansion past [`DNF_CAP`] conjuncts returns `true`).
pub fn is_satisfiable(f: &Formula, env: &TypeEnv) -> bool {
    expansion_satisfiable(&[&simplify(&nnf(f))], env)
}

/// The verdict on the conjunction of `conjuncts`, normalised formulas:
/// depth-first over their DNF expansion, at the first consistent branch.
/// The size gate bounds the branches, so the search needs no budget.
fn expansion_satisfiable(conjuncts: &[&Formula], env: &TypeEnv) -> bool {
    if conjunction_size(conjuncts.iter().copied(), DNF_CAP).is_none() {
        return true; // too big to decide — assume satisfiable
    }
    let agenda = Agenda {
        conjuncts,
        nested: Vec::new(),
    };
    let mut unbounded = usize::MAX;
    consistent_branch(Conj::new(), agenda, None, env, &mut unbounded)
}

/// The atoms still to assert on a branch: the rest of the top-level
/// conjunction, after the rest of each nested conjunction entered on
/// the way (innermost last).
#[derive(Clone)]
struct Agenda<'f> {
    conjuncts: &'f [&'f Formula],
    nested: Vec<&'f [Formula]>,
}

impl<'f> Agenda<'f> {
    fn next(&mut self) -> Option<&'f Formula> {
        while let Some(members) = self.nested.last_mut() {
            if let Some((g, rest)) = members.split_first() {
                *members = rest;
                return Some(g);
            }
            self.nested.pop();
        }
        let (g, rest) = self.conjuncts.split_first()?;
        self.conjuncts = rest;
        Some(*g)
    }
}

/// Does some branch of the expansion, from `st` with `goal` and then the
/// agenda still to assert, survive the theory check? The branches and the
/// order of atoms on each are exactly [`dnf`]'s conjuncts. A branch is
/// dropped as soon as its state is dead, which no further atom undoes;
/// a complete one gets the full check.
///
/// `budget` counts the branches the search may still end, dropped or
/// complete; once it is spent no further branch is started and the
/// answer is `false`.
fn consistent_branch<'f>(
    mut st: Conj,
    mut agenda: Agenda<'f>,
    mut goal: Option<&'f Formula>,
    env: &TypeEnv,
    budget: &mut usize,
) -> bool {
    while let Some(g) = goal.take().or_else(|| agenda.next()) {
        match g {
            Formula::And(members) => agenda.nested.push(members),
            Formula::Or(alternatives) => {
                let Some((last, rest)) = alternatives.split_last() else {
                    return false; // an empty disjunction has no branch
                };
                for alt in rest {
                    if consistent_branch(st.clone(), agenda.clone(), Some(alt), env, budget) {
                        return true;
                    }
                    if *budget == 0 {
                        return false;
                    }
                }
                goal = Some(last);
            }
            atom => {
                st.add_atom(env, atom);
                if st.dead {
                    *budget = budget.saturating_sub(1);
                    return false;
                }
            }
        }
    }
    *budget = budget.saturating_sub(1);
    !st.unsat(env)
}

/// A formula normalised once, for many satisfiability questions about
/// conjunctions it joins: each top-level conjunct (as [`Formula::and`]
/// flattens them) in simplified negation normal form.
#[derive(Clone, Debug)]
pub struct Prepared {
    conjuncts: Vec<Formula>,
}

impl Prepared {
    /// Normalises `f` once.
    pub fn new(f: &Formula) -> Self {
        let top = match f {
            Formula::And(fs) => fs.as_slice(),
            f => std::slice::from_ref(f),
        };
        Prepared {
            conjuncts: top.iter().map(|c| simplify(&nnf(c))).collect(),
        }
    }

    /// Normalises `¬f` once: the part an entailment check `phi ⊨ f`
    /// conjoins with `phi`.
    pub fn negation(f: &Formula) -> Self {
        Prepared::new(&Formula::Not(Box::new(f.clone())))
    }
}

/// Is the conjunction of the prepared parts satisfiable? The parts are
/// joined under `simplify`'s own rule for a conjunction, so the verdict,
/// cap included, is [`is_satisfiable`]'s on the conjunction of their
/// formulas (`Formula::conj` of them, or `phi.and(¬psi)` for the parts of
/// [`Prepared::new`]`(phi)` and [`Prepared::negation`]`(psi)`).
pub fn conjunction_satisfiable<'p>(
    parts: impl IntoIterator<Item = &'p Prepared>,
    env: &TypeEnv,
) -> bool {
    join(parts).is_some_and(|joined| expansion_satisfiable(&joined, env))
}

/// The conjuncts of the prepared parts joined under `simplify`'s rule for
/// a conjunction, or `None` when one of them is `False`.
fn join<'p>(parts: impl IntoIterator<Item = &'p Prepared>) -> Option<Vec<&'p Formula>> {
    let mut joined = Children::default();
    for c in parts.into_iter().flat_map(|p| &p.conjuncts) {
        if !joined.conjoin(c) {
            return None;
        }
    }
    Some(joined.items)
}

/// Is there a *witness* for the conjunction of the prepared parts: a
/// branch of its expansion that the theory check accepts, found within
/// [`DNF_CAP`] branches? `false` means that no such branch was found,
/// either because none exists or because the search ended that many
/// branches, dropped or complete, first. Unlike
/// [`conjunction_satisfiable`] there is no size gate, so a large family
/// is searched too, and the cost stays bounded by the same cap.
///
/// The parts are joined as [`conjunction_satisfiable`] joins them, and
/// the search asserts the conjuncts that are not disjunctions first: any
/// accepted branch is a witness whatever the order, and a family with an
/// unconditional contradiction dies on its first branch.
///
/// **What a witness proves.** The theory check is monotone: if asserting
/// a set of atoms, in any order, survives both the eager `dead` test and
/// the full check, then asserting any subset of them, in any order,
/// survives too. Each part of the check only tightens as atoms are
/// added: domains are intersected, difference edges and hull bounds are
/// added, the propagation over path equalities only narrows, and the
/// disequality singleton test and the `contains` filters only refute
/// more. That holds across carriers too: an intersection can turn a
/// discrete domain numeric, never back, and the numeric domain refutes
/// at least as much (it carries hull bounds, and no number contains a
/// substring), while the numbers of a set that mixes kinds are taken as
/// reals, so `3` and `3.0` meet in any order. Now take a subset of the
/// parts, such as one pair. Its joined conjuncts are among the family's,
/// so the witness's choices on them form a branch of the subset's
/// expansion whose atoms are a subset of the witness's. That branch survives, so [`conjunction_satisfiable`],
/// which searches the whole expansion when it is within the cap, answers
/// "satisfiable" on the subset; past the cap it answers so anyway. A
/// found witness thus decides every subset's question at once, the
/// same way. The test module checks the monotonicity on random atom
/// lists.
pub fn conjunction_witness<'p>(
    parts: impl IntoIterator<Item = &'p Prepared>,
    env: &TypeEnv,
) -> bool {
    let mut budget = DNF_CAP;
    witness_within(parts, env, &mut budget)
}

/// [`conjunction_witness`] with the branch budget given: the search ends
/// at most `budget` branches and takes them off it.
fn witness_within<'p>(
    parts: impl IntoIterator<Item = &'p Prepared>,
    env: &TypeEnv,
    budget: &mut usize,
) -> bool {
    let Some(joined) = join(parts) else {
        return false;
    };
    let (mut order, disjunctions): (Vec<&Formula>, Vec<&Formula>) = joined
        .into_iter()
        .partition(|g| !matches!(g, Formula::Or(_)));
    order.extend(disjunctions);
    let agenda = Agenda {
        conjuncts: &order,
        nested: Vec::new(),
    };
    consistent_branch(Conj::new(), agenda, None, env, budget)
}

/// Proven entailment: `phi ⊨ psi` iff `phi ∧ ¬psi` is unsatisfiable.
/// Returns `false` when entailment cannot be proven (conservative).
pub fn implies(phi: &Formula, psi: &Formula, env: &TypeEnv) -> bool {
    !conjunction_satisfiable([&Prepared::new(phi), &Prepared::negation(psi)], env)
}

/// Proven equivalence (entailment both ways).
pub fn equivalent(phi: &Formula, psi: &Formula, env: &TypeEnv) -> bool {
    implies(phi, psi, env) && implies(psi, phi, env)
}

/// Is the formula free of arithmetic (`Bin`/`Neg`) expressions? Such
/// formulas evaluate two-valued whenever all their paths are non-null,
/// which is what lets the query planner transfer the solver's classical
/// entailments to the three-valued evaluator.
pub fn arithmetic_free(f: &Formula) -> bool {
    fn expr_free(e: &Expr) -> bool {
        match e {
            Expr::Const(_) | Expr::Attr(_) => true,
            Expr::Neg(_) | Expr::Bin(..) => false,
        }
    }
    match f {
        Formula::True | Formula::False => true,
        Formula::Cmp(a, _, b) => expr_free(a) && expr_free(b),
        Formula::In(e, _) | Formula::Contains(e, _) => expr_free(e),
        Formula::Not(inner) => arithmetic_free(inner),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(arithmetic_free),
        Formula::Implies(a, b) => arithmetic_free(a) && arithmetic_free(b),
    }
}

/// Restricted entailment for the query planner's implied-true pruning:
/// proves `constraints ⊨ target` using **only** premises whose paths are a
/// subset of `target`'s paths, with both sides free of arithmetic.
///
/// The restriction is what makes the classical proof transfer to the
/// three-valued evaluator: on any object where all of `target`'s paths are
/// non-null, every usable premise evaluates two-valued — and, being
/// store-enforced (never `False`), evaluates `True` — so `target`
/// evaluates `True` as well. Premises reaching *other* paths may be
/// `Unknown` on such an object and therefore cannot be used.
pub fn implied_by_restricted(constraints: &[Formula], target: &Formula, env: &TypeEnv) -> bool {
    if !arithmetic_free(target) {
        return false;
    }
    let target_paths = target.paths();
    let usable: Vec<Formula> = constraints
        .iter()
        .filter(|c| arithmetic_free(c) && c.paths().is_subset(&target_paths))
        .cloned()
        .collect();
    let premise = Formula::conj(usable);
    implies(&premise, target, env)
}

/// The store-enforced constraints of one class, prepared once for the
/// query planner so that each question pays only for the premises it
/// can soundly use.
///
/// Preparation drops every constraint whose negation is unsatisfiable —
/// a tautology says nothing, yet it still multiplies the DNF of every
/// conjunction it joins — and every constraint with arithmetic, which
/// may evaluate `Unknown` even on non-null paths (a division by zero).
/// The remaining premises keep their path sets.
///
/// Both planner questions then follow one path-subset rule: a premise
/// is usable only when its paths lie inside a set of paths known to be
/// non-null on the objects in question. There the premise evaluates
/// two-valued, and a store-enforced constraint is never `False`, so it
/// is `True` — which is what lets a classical proof over the usable
/// premises transfer to the three-valued evaluator. A premise reaching
/// any other path may be `Unknown` there, and reasoning with it would
/// prune real hits.
#[derive(Clone, Debug, Default)]
pub struct PremiseSet {
    premises: Vec<(Formula, BTreeSet<Path>)>,
}

impl PremiseSet {
    /// Prepares `constraints`, each known never to evaluate `False` on
    /// an object of the class, against the class's type environment.
    pub fn new(constraints: &[Formula], env: &TypeEnv) -> Self {
        let premises = constraints
            .iter()
            .filter(|c| arithmetic_free(c) && is_satisfiable(&(*c).clone().negate(), env))
            .map(|c| (c.clone(), c.paths()))
            .collect();
        PremiseSet { premises }
    }

    /// The premises whose paths all lie in `scope`.
    fn within<'a>(&'a self, scope: &'a BTreeSet<Path>) -> impl Iterator<Item = &'a Formula> {
        self.premises
            .iter()
            .filter(|(_, paths)| paths.is_subset(scope))
            .map(|(f, _)| f)
    }

    /// Proves that no object of the class makes `pred` `True`, using
    /// only the premises whose paths lie inside the paths `pred` forces
    /// non-null. On an object where `pred` is `True` those premises are
    /// `True` too, and completing its remaining nulls with any values
    /// keeps `pred` `True` (Kleene logic is monotone), so an
    /// unsatisfiable conjunction rules every object out.
    pub fn refutes(&self, pred: &Formula, env: &TypeEnv) -> bool {
        let forced = forced_paths(pred);
        let conj = self
            .within(&forced)
            .fold(pred.clone(), |acc, p| acc.and(p.clone()));
        !is_satisfiable(&conj, env)
    }

    /// Proves that `target` is `True` on every object of the class
    /// where its own paths are non-null, using only the premises over
    /// those paths — the rule of [`implied_by_restricted`]. Arithmetic
    /// targets are refused.
    pub fn entails(&self, target: &Formula, env: &TypeEnv) -> bool {
        if !arithmetic_free(target) {
            return false;
        }
        let scope = target.paths();
        let premise = Formula::conj(self.within(&scope).cloned());
        implies(&premise, target, env)
    }
}

/// The paths an object must have non-null for `pred` to be `True` on
/// it: the paths of `pred`'s top-level atomic conjuncts. A comparison,
/// membership or substring atom — under any number of negations — is
/// `Unknown` whenever one of its paths is null, so it is `True` only
/// where all of them are non-null. Disjunctions and implications force
/// nothing: they can be `True` through one side alone.
fn forced_paths(pred: &Formula) -> BTreeSet<Path> {
    fn atomic(f: &Formula) -> bool {
        match f {
            Formula::Cmp(..) | Formula::In(..) | Formula::Contains(..) => true,
            Formula::Not(inner) => atomic(inner),
            _ => false,
        }
    }
    let conjuncts = match pred {
        Formula::And(fs) => fs.as_slice(),
        other => std::slice::from_ref(other),
    };
    conjuncts
        .iter()
        .filter(|f| atomic(f))
        .flat_map(Formula::paths)
        .collect()
}

/// Enumeration cap for [`selectivity_hint`] — base domains larger than
/// this are treated as non-enumerable (no prior available).
const SELECTIVITY_CAP: usize = 256;

/// Number of candidate values in a domain, when finitely enumerable
/// within the cap.
fn domain_count(d: &Domain, cap: usize) -> Option<usize> {
    match d {
        Domain::Num(n) => n.enumerate(cap).map(|vs| vs.len()),
        Domain::Disc(DiscSet::In(s)) => Some(s.len()),
        Domain::Disc(DiscSet::NotIn(_)) => None,
    }
}

/// Plan-time selectivity prior for a single-path conjunct, from the
/// domain algebra: the fraction of the attribute's finite base domain
/// that satisfies `f`. `None` when the base domain is not finitely
/// enumerable (strings, unbounded numerics) or `f` spans several paths.
///
/// This is the query planner's statistics-free fallback: a store may
/// have no histogram for an attribute (or none built yet), but a typed
/// domain like `rating : 1..10` already bounds how selective
/// `rating >= 9` can be — exactly the way the paper's derived
/// constraints prune provably-empty subqueries, applied quantitatively.
pub fn selectivity_hint(f: &Formula, env: &TypeEnv) -> Option<f64> {
    let paths = f.paths();
    if paths.len() != 1 {
        return None;
    }
    let path = paths.into_iter().next().expect("exactly one path");
    let base = env.base_domain(&path);
    let base_n = domain_count(&base, SELECTIVITY_CAP)?;
    if base_n == 0 {
        return Some(0.0);
    }
    let proj = project(f, &path, env).intersect(&base);
    let proj_n = domain_count(&proj, SELECTIVITY_CAP)?;
    Some((proj_n as f64 / base_n as f64).clamp(0.0, 1.0))
}

/// Is the conjunction of all formulas unsatisfiable? (The paper's
/// *explicit conflict*: `Ω̂ ⊨ false`.)
pub fn conjunction_unsat(fs: &[&Formula], env: &TypeEnv) -> bool {
    let parts: Vec<Prepared> = fs.iter().map(|f| Prepared::new(f)).collect();
    !conjunction_satisfiable(&parts, env)
}

/// Projects the solution set of `f` onto `path`: the union over DNF
/// conjuncts of the per-conjunct domain (an over-approximation whenever
/// opaque atoms were dropped; exact for the paper's examples).
pub fn project(f: &Formula, path: &Path, env: &TypeEnv) -> Domain {
    let conjs = match dnf(f, DNF_CAP) {
        None => return env.base_domain(path),
        Some(c) => c,
    };
    let mut acc: Option<Domain> = None;
    for conj in conjs {
        let mut st = Conj::new();
        for atom in &conj {
            st.add_atom(env, atom);
        }
        // Materialise the domain before the (destructive) unsat check.
        let dom = st
            .domains
            .get(path)
            .cloned()
            .unwrap_or_else(|| env.base_domain(path));
        if st.unsat(env) {
            continue;
        }
        acc = Some(match acc {
            None => dom,
            Some(a) => a.union(&dom),
        });
    }
    acc.unwrap_or_else(Domain::empty)
}

/// A *guarded atom*: the decomposed form of a normalised object
/// constraint used by the derivation engine (§5.2.1). `guard ⇒ path ∈
/// domain`, with `guard = true` for unconditional constraints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardedAtom {
    /// The condition under which the body applies (`true` if none).
    pub guard: Formula,
    /// The constrained path.
    pub path: Path,
    /// The allowed value set.
    pub domain: Domain,
}

impl GuardedAtom {
    /// Rebuilds a formula from the guarded-atom form.
    pub fn to_formula(&self) -> Formula {
        let body = domain_to_formula(&self.path, &self.domain);
        match &self.guard {
            Formula::True => body,
            g => g.clone().implies(body),
        }
    }
}

/// Decomposes a normalised constraint into guarded atoms. Returns `None`
/// when the constraint does not fit the `guard ⇒ single-path-body` shape
/// (such constraints are conservatively not derivable through decision
/// functions — the paper's general derivation problem is noted as out of
/// scope there too).
pub fn guarded_atoms(f: &Formula, env: &TypeEnv) -> Option<Vec<GuardedAtom>> {
    fn body_target(f: &Formula) -> Option<Path> {
        let ps = f.paths();
        if ps.len() == 1 {
            ps.into_iter().next()
        } else {
            None
        }
    }
    match f {
        Formula::Implies(g, b) => {
            let inner = guarded_atoms(b, env)?;
            Some(
                inner
                    .into_iter()
                    .map(|ga| GuardedAtom {
                        guard: simplify(&(*g.clone()).and(ga.guard)),
                        path: ga.path,
                        domain: ga.domain,
                    })
                    .collect(),
            )
        }
        Formula::And(fs) => {
            let mut out = Vec::new();
            for g in fs {
                out.extend(guarded_atoms(g, env)?);
            }
            Some(out)
        }
        Formula::True => Some(Vec::new()),
        atom => {
            let path = body_target(atom)?;
            // Contains bodies carry no domain information we can combine.
            if matches!(atom, Formula::Contains(_, _)) {
                return None;
            }
            let domain = project(atom, &path, env);
            Some(vec![GuardedAtom {
                guard: Formula::True,
                path,
                domain,
            }])
        }
    }
}

/// Converts a domain back into formula syntax over `path` (used when
/// rendering derived constraints and repair suggestions).
pub fn domain_to_formula(path: &Path, d: &Domain) -> Formula {
    match d {
        Domain::Disc(DiscSet::In(s)) => {
            if s.is_empty() {
                Formula::False
            } else if s.len() == 1 {
                Formula::Cmp(
                    Expr::Attr(path.clone()),
                    CmpOp::Eq,
                    Expr::Const(s.iter().next().expect("non-empty").clone()),
                )
            } else {
                Formula::In(Expr::Attr(path.clone()), s.clone())
            }
        }
        Domain::Disc(DiscSet::NotIn(s)) => {
            if s.is_empty() {
                Formula::True
            } else if s.len() == 1 {
                Formula::Cmp(
                    Expr::Attr(path.clone()),
                    CmpOp::Ne,
                    Expr::Const(s.iter().next().expect("non-empty").clone()),
                )
            } else {
                Formula::Not(Box::new(Formula::In(Expr::Attr(path.clone()), s.clone())))
            }
        }
        Domain::Num(ns) => {
            if ns.is_empty() {
                return Formula::False;
            }
            if ns.is_full() {
                return Formula::True;
            }
            if let Some(pts) = ns.enumerate(32) {
                let vals: BTreeSet<Value> = pts
                    .into_iter()
                    .map(|r| {
                        if ns.integral && r.get().fract() == 0.0 {
                            Value::Int(r.get() as i64)
                        } else {
                            Value::Real(r)
                        }
                    })
                    .collect();
                return if vals.len() == 1 {
                    Formula::Cmp(
                        Expr::Attr(path.clone()),
                        CmpOp::Eq,
                        Expr::Const(vals.iter().next().expect("non-empty").clone()),
                    )
                } else {
                    Formula::In(Expr::Attr(path.clone()), vals)
                };
            }
            let mut parts = Vec::new();
            for iv in ns.intervals() {
                let mut conj = Vec::new();
                match iv.lo {
                    crate::domain::Bnd::Incl(v) => conj.push(Formula::Cmp(
                        Expr::Attr(path.clone()),
                        CmpOp::Ge,
                        Expr::Const(num_val(v, ns.integral)),
                    )),
                    crate::domain::Bnd::Excl(v) => conj.push(Formula::Cmp(
                        Expr::Attr(path.clone()),
                        CmpOp::Gt,
                        Expr::Const(num_val(v, ns.integral)),
                    )),
                    _ => {}
                }
                match iv.hi {
                    crate::domain::Bnd::Incl(v) => conj.push(Formula::Cmp(
                        Expr::Attr(path.clone()),
                        CmpOp::Le,
                        Expr::Const(num_val(v, ns.integral)),
                    )),
                    crate::domain::Bnd::Excl(v) => conj.push(Formula::Cmp(
                        Expr::Attr(path.clone()),
                        CmpOp::Lt,
                        Expr::Const(num_val(v, ns.integral)),
                    )),
                    _ => {}
                }
                parts.push(Formula::conj(conj));
            }
            parts.into_iter().fold(Formula::False, |acc, p| acc.or(p))
        }
    }
}

fn num_val(v: R64, integral: bool) -> Value {
    if integral && v.get().fract() == 0.0 {
        Value::Int(v.get() as i64)
    } else {
        Value::Real(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn env() -> TypeEnv {
        TypeEnv::new()
            .with("rating", Type::Range(1, 10))
            .with("libprice", Type::Real)
            .with("shopprice", Type::Real)
            .with("ref?", Type::Bool)
            .with("publisher.name", Type::Str)
            .with("trav_reimb", Type::Int)
            .with("salary", Type::Real)
    }

    #[test]
    fn selectivity_hint_from_finite_base_domain() {
        let e = env();
        // rating : 1..10 — `rating >= 9` admits {9, 10}: 0.2.
        let f = Formula::cmp("rating", CmpOp::Ge, 9i64);
        assert_eq!(selectivity_hint(&f, &e), Some(0.2));
        // Membership sets count exactly.
        let f = Formula::isin("rating", [3i64, 4, 99]);
        assert_eq!(selectivity_hint(&f, &e), Some(0.2), "99 outside the base");
        // Bool base domain has two values.
        let f = Formula::cmp("ref?", CmpOp::Eq, true);
        assert_eq!(selectivity_hint(&f, &e), Some(0.5));
        // Non-enumerable bases and multi-path formulas give no prior.
        assert_eq!(
            selectivity_hint(&Formula::cmp("salary", CmpOp::Ge, 10.0), &e),
            None
        );
        let multi = Formula::cmp("rating", CmpOp::Ge, 2i64).and(Formula::cmp(
            "trav_reimb",
            CmpOp::Eq,
            10i64,
        ));
        assert_eq!(selectivity_hint(&multi, &e), None);
        // A contradiction projects to the empty set.
        let f =
            Formula::cmp("rating", CmpOp::Ge, 9i64).and(Formula::cmp("rating", CmpOp::Lt, 3i64));
        assert_eq!(selectivity_hint(&f, &e), Some(0.0));
    }

    #[test]
    fn unary_contradiction_unsat() {
        let f =
            Formula::cmp("rating", CmpOp::Ge, 7i64).and(Formula::cmp("rating", CmpOp::Lt, 4i64));
        assert!(!is_satisfiable(&f, &env()));
    }

    #[test]
    fn paper_strict_sim_check() {
        // §5.2.1: rating >= 7 ⊨ rating >= 4 (conformed ocl of RefereedPubl).
        let e = env();
        assert!(implies(
            &Formula::cmp("rating", CmpOp::Ge, 7i64),
            &Formula::cmp("rating", CmpOp::Ge, 4i64),
            &e
        ));
        // ... but rating >= 3 ⊭ rating >= 4 (the paper's variant).
        assert!(!implies(
            &Formula::cmp("rating", CmpOp::Ge, 3i64),
            &Formula::cmp("rating", CmpOp::Ge, 4i64),
            &e
        ));
    }

    #[test]
    fn range_types_feed_implicit_bounds() {
        // rating : 1..10, so rating >= 11 is unsatisfiable by type alone.
        assert!(!is_satisfiable(
            &Formula::cmp("rating", CmpOp::Ge, 11i64),
            &env()
        ));
        // And rating <= 10 is implied by anything.
        assert!(implies(
            &Formula::True,
            &Formula::cmp("rating", CmpOp::Le, 10i64),
            &env()
        ));
    }

    #[test]
    fn path_equality_joins_domains_of_any_kind() {
        // `s = t` between two bare paths reaches the domain propagation
        // as well as the difference bounds, so strings refute too.
        let e = env().with("s", Type::Str).with("t", Type::Str);
        let eq = || Formula::Cmp(Expr::attr("s"), CmpOp::Eq, Expr::attr("t"));
        let clash = eq()
            .and(Formula::cmp("s", CmpOp::Eq, "a"))
            .and(Formula::cmp("t", CmpOp::Eq, "b"));
        assert!(!is_satisfiable(&clash, &e));
        let agree = eq()
            .and(Formula::cmp("s", CmpOp::Eq, "a"))
            .and(Formula::cmp("t", CmpOp::Eq, "a"));
        assert!(is_satisfiable(&agree, &e));
        assert!(implies(
            &eq().and(Formula::cmp("s", CmpOp::Eq, "a")),
            &Formula::cmp("t", CmpOp::Eq, "a"),
            &e
        ));
        // The integer case, refuted by the difference bounds before.
        let e = env().with("n", Type::Int);
        let clash = Formula::Cmp(Expr::attr("trav_reimb"), CmpOp::Eq, Expr::attr("n"))
            .and(Formula::cmp("trav_reimb", CmpOp::Eq, 1i64))
            .and(Formula::cmp("n", CmpOp::Eq, 2i64));
        assert!(!is_satisfiable(&clash, &e));
    }

    #[test]
    fn difference_constraints_strictness() {
        let e = env();
        // libprice <= shopprice ∧ libprice > shopprice : unsat
        let f = Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice")).and(
            Formula::Cmp(Expr::attr("libprice"), CmpOp::Gt, Expr::attr("shopprice")),
        );
        assert!(!is_satisfiable(&f, &e));
        // libprice <= shopprice ∧ libprice >= shopprice : satisfiable (=)
        let g = Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice")).and(
            Formula::Cmp(Expr::attr("libprice"), CmpOp::Ge, Expr::attr("shopprice")),
        );
        assert!(is_satisfiable(&g, &e));
    }

    #[test]
    fn difference_chain_with_bounds() {
        let e = env();
        // libprice <= shopprice ∧ shopprice <= 10 ∧ libprice >= 20 : unsat
        let f = Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice"))
            .and(Formula::cmp("shopprice", CmpOp::Le, 10.0))
            .and(Formula::cmp("libprice", CmpOp::Ge, 20.0));
        assert!(!is_satisfiable(&f, &e));
    }

    #[test]
    fn implication_atoms_in_context() {
        let e = env();
        // (ref?=true ⇒ rating>=7) ∧ ref?=true ⊨ rating >= 7
        let phi = Formula::cmp("ref?", CmpOp::Eq, true)
            .implies(Formula::cmp("rating", CmpOp::Ge, 7i64))
            .and(Formula::cmp("ref?", CmpOp::Eq, true));
        assert!(implies(&phi, &Formula::cmp("rating", CmpOp::Ge, 7i64), &e));
        assert!(implies(&phi, &Formula::cmp("rating", CmpOp::Ge, 4i64), &e));
        assert!(!implies(&phi, &Formula::cmp("rating", CmpOp::Ge, 8i64), &e));
    }

    #[test]
    fn bool_domain_finite() {
        let e = env();
        // ref? ≠ true ∧ ref? ≠ false : unsat (bool carrier is {t,f})
        let f = Formula::cmp("ref?", CmpOp::Ne, true).and(Formula::cmp("ref?", CmpOp::Ne, false));
        assert!(!is_satisfiable(&f, &e));
    }

    #[test]
    fn string_equalities() {
        let e = env();
        let f = Formula::cmp("publisher.name", CmpOp::Eq, "ACM").and(Formula::cmp(
            "publisher.name",
            CmpOp::Eq,
            "IEEE",
        ));
        assert!(!is_satisfiable(&f, &e));
        let g = Formula::cmp("publisher.name", CmpOp::Eq, "ACM").and(Formula::cmp(
            "publisher.name",
            CmpOp::Ne,
            "IEEE",
        ));
        assert!(is_satisfiable(&g, &e));
    }

    #[test]
    fn membership_sets() {
        let e = env();
        // trav_reimb in {10,20} ∧ trav_reimb in {14,24} : unsat (disjoint)
        let f =
            Formula::isin("trav_reimb", [10i64, 20]).and(Formula::isin("trav_reimb", [14i64, 24]));
        assert!(!is_satisfiable(&f, &e));
        // overlapping sets fine
        let g =
            Formula::isin("trav_reimb", [10i64, 20]).and(Formula::isin("trav_reimb", [20i64, 30]));
        assert!(is_satisfiable(&g, &e));
    }

    #[test]
    fn negated_membership() {
        let e = env();
        let f = Formula::isin("trav_reimb", [10i64, 20]).and(Formula::Not(Box::new(
            Formula::isin("trav_reimb", [10i64, 20]),
        )));
        assert!(!is_satisfiable(&f, &e));
    }

    #[test]
    fn contains_contradiction() {
        let e = env();
        let c = Formula::Contains(Expr::attr("publisher.name"), "IEE".into());
        let f = c.clone().and(Formula::Not(Box::new(c)));
        assert!(!is_satisfiable(&f, &e));
    }

    #[test]
    fn contains_filters_finite_domains() {
        let e = env();
        // name in {ACM, IEEE} ∧ contains(name, 'Springer') : unsat
        let f = Formula::isin("publisher.name", [Value::str("ACM"), Value::str("IEEE")]).and(
            Formula::Contains(Expr::attr("publisher.name"), "Springer".into()),
        );
        assert!(!is_satisfiable(&f, &e));
        // name in {ACM, IEEE} ∧ contains(name, 'EE') : satisfiable (IEEE)
        let g = Formula::isin("publisher.name", [Value::str("ACM"), Value::str("IEEE")])
            .and(Formula::Contains(Expr::attr("publisher.name"), "EE".into()));
        assert!(is_satisfiable(&g, &e));
    }

    #[test]
    fn no_number_contains_a_substring() {
        let e = env();
        let contains = |p: &str| Formula::Contains(Expr::attr(p), "1".into());
        // A numeric domain, typed or left by an intersection on an
        // untyped path, holds no value that contains a substring, and
        // every value it holds meets `not contains`.
        assert!(!is_satisfiable(&contains("rating"), &e));
        let mixed = Formula::isin("tag", [Value::str("a1"), Value::int(1)]);
        assert!(is_satisfiable(&mixed.clone().and(contains("tag")), &e));
        let numeric = Formula::cmp("tag", CmpOp::Eq, 1i64);
        assert!(!is_satisfiable(&numeric.clone().and(contains("tag")), &e));
        assert!(!is_satisfiable(
            &mixed.clone().and(numeric.clone()).and(contains("tag")),
            &e
        ));
        let lacks = Formula::Not(Box::new(contains("tag")));
        assert!(is_satisfiable(&numeric.and(lacks), &e));
    }

    #[test]
    fn a_number_is_one_member_whether_written_int_or_real() {
        let e = env();
        let ints = Formula::isin("tag", [Value::int(3), Value::str("x")]);
        let reals = Formula::isin("tag", [Value::Real(R64::new(3.0)), Value::str("y")]);
        // The two sets share 3, in either order and on any carrier.
        assert!(is_satisfiable(&ints.clone().and(reals.clone()), &e));
        assert!(is_satisfiable(&reals.clone().and(ints.clone()), &e));
        let bound = Formula::cmp("tag", CmpOp::Lt, 5i64);
        assert!(is_satisfiable(&bound.and(ints.clone()).and(reals), &e));
        // And `tag not in {3, 'x'}` leaves nothing of `{3.0, 'x'}`.
        let both = Formula::isin("tag", [Value::Real(R64::new(3.0)), Value::str("x")]);
        assert!(!is_satisfiable(&Formula::Not(Box::new(ints)).and(both), &e));
    }

    #[test]
    fn affine_atoms() {
        let e = env();
        // 2*rating - 1 >= 13  ⇔  rating >= 7
        let f = Formula::Cmp(
            Expr::Bin(
                Box::new(Expr::Bin(
                    Box::new(Expr::val(2i64)),
                    ArithOp::Mul,
                    Box::new(Expr::attr("rating")),
                )),
                ArithOp::Sub,
                Box::new(Expr::val(1i64)),
            ),
            CmpOp::Ge,
            Expr::val(13i64),
        );
        assert!(equivalent(&f, &Formula::cmp("rating", CmpOp::Ge, 7i64), &e));
    }

    #[test]
    fn project_extracts_domains() {
        let e = env();
        let f = Formula::cmp("rating", CmpOp::Ge, 4i64);
        let d = project(&f, &Path::parse("rating"), &e);
        assert!(d.contains(&Value::int(4)));
        assert!(!d.contains(&Value::int(3)));
        assert!(d.contains(&Value::int(10)));
        assert!(!d.contains(&Value::int(11))); // type bound 1..10
    }

    #[test]
    fn project_through_disjunction() {
        let e = env();
        let f = Formula::cmp("rating", CmpOp::Le, 2i64).or(Formula::cmp("rating", CmpOp::Ge, 9i64));
        let d = project(&f, &Path::parse("rating"), &e);
        assert!(d.contains(&Value::int(1)));
        assert!(d.contains(&Value::int(9)));
        assert!(!d.contains(&Value::int(5)));
    }

    #[test]
    fn project_conditional_yields_full_when_guard_open() {
        let e = env();
        // ref?=true ⇒ rating>=7 : projection on rating is everything
        // (guard may be false).
        let f =
            Formula::cmp("ref?", CmpOp::Eq, true).implies(Formula::cmp("rating", CmpOp::Ge, 7i64));
        let d = project(&f, &Path::parse("rating"), &e);
        assert!(d.contains(&Value::int(1)));
    }

    #[test]
    fn guarded_atoms_unconditional() {
        let e = env();
        let gas = guarded_atoms(&Formula::cmp("rating", CmpOp::Ge, 4i64), &e).unwrap();
        assert_eq!(gas.len(), 1);
        assert_eq!(gas[0].guard, Formula::True);
        assert_eq!(gas[0].path, Path::parse("rating"));
        assert!(!gas[0].domain.contains(&Value::int(3)));
    }

    #[test]
    fn guarded_atoms_conditional_acm() {
        // §5.2.1: publisher.name='ACM' ⇒ rating >= 6
        let e = env();
        let f = Formula::cmp("publisher.name", CmpOp::Eq, "ACM").implies(Formula::cmp(
            "rating",
            CmpOp::Ge,
            6i64,
        ));
        let gas = guarded_atoms(&f, &e).unwrap();
        assert_eq!(gas.len(), 1);
        assert_eq!(gas[0].guard.to_string(), "publisher.name = 'ACM'");
        assert!(!gas[0].domain.contains(&Value::int(5)));
    }

    #[test]
    fn guarded_atoms_reject_multi_path_bodies() {
        let e = env();
        let f = Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice"));
        assert!(guarded_atoms(&f, &e).is_none());
    }

    #[test]
    fn guarded_atoms_roundtrip_formula() {
        let e = env();
        let f = Formula::cmp("publisher.name", CmpOp::Eq, "ACM").implies(Formula::cmp(
            "rating",
            CmpOp::Ge,
            6i64,
        ));
        let gas = guarded_atoms(&f, &e).unwrap();
        let back = gas[0].to_formula();
        assert!(equivalent(&f, &back, &e));
    }

    #[test]
    fn domain_to_formula_forms() {
        let p = Path::parse("x");
        let d = Domain::Num(NumSet::from_cmp(false, CmpOp::Ge, R64::new(5.0)));
        assert_eq!(domain_to_formula(&p, &d).to_string(), "x >= 5");
        let pts = Domain::Num(NumSet::points(
            true,
            [R64::from(12), R64::from(17), R64::from(22)],
        ));
        assert_eq!(domain_to_formula(&p, &pts).to_string(), "x in {12, 17, 22}");
        let one = Domain::Disc(DiscSet::point(Value::str("ACM")));
        assert_eq!(domain_to_formula(&p, &one).to_string(), "x = 'ACM'");
        assert_eq!(domain_to_formula(&p, &Domain::empty()), Formula::False);
    }

    #[test]
    fn conjunction_unsat_reports_explicit_conflicts() {
        let e = env();
        let a = Formula::cmp("rating", CmpOp::Ge, 7i64);
        let b = Formula::cmp("rating", CmpOp::Le, 3i64);
        assert!(conjunction_unsat(&[&a, &b], &e));
        let c = Formula::cmp("rating", CmpOp::Ge, 2i64);
        assert!(!conjunction_unsat(&[&a, &c], &e));
    }

    #[test]
    fn restricted_implication_uses_only_covered_premises() {
        let e = env();
        let enforced = [
            Formula::cmp("rating", CmpOp::Ge, 5i64),
            Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice")),
        ];
        // rating >= 2 follows from the rating premise alone.
        assert!(implied_by_restricted(
            &enforced,
            &Formula::cmp("rating", CmpOp::Ge, 2i64),
            &e
        ));
        // libprice <= shopprice is entailed classically, but the premise
        // mentions shopprice, which the target 'libprice <= 1e9' does not
        // cover — the premise may be Unknown where the target's paths are
        // non-null, so the restricted check must refuse.
        assert!(!implied_by_restricted(
            &enforced,
            &Formula::cmp("libprice", CmpOp::Le, 1e9),
            &e
        ));
        // Not entailed at all.
        assert!(!implied_by_restricted(
            &enforced,
            &Formula::cmp("rating", CmpOp::Ge, 6i64),
            &e
        ));
    }

    #[test]
    fn premise_set_drops_tautologies_and_arithmetic() {
        let e = env();
        let vacuous = Formula::cmp("rating", CmpOp::Eq, 1i64)
            .and(Formula::cmp("rating", CmpOp::Eq, 2i64))
            .implies(Formula::cmp("salary", CmpOp::Ge, 5.0));
        let arith = Formula::Cmp(
            Expr::Bin(
                Box::new(Expr::attr("rating")),
                ArithOp::Add,
                Box::new(Expr::val(1i64)),
            ),
            CmpOp::Ge,
            Expr::val(5i64),
        );
        let live = Formula::cmp("rating", CmpOp::Ge, 5i64);
        let set = PremiseSet::new(&[vacuous, arith, live.clone(), Formula::True], &e);
        let kept: Vec<&Formula> = set.premises.iter().map(|(f, _)| f).collect();
        assert_eq!(
            kept,
            [&live],
            "only the live, arithmetic-free premise stays"
        );
    }

    #[test]
    fn refutation_uses_only_premises_the_query_forces() {
        let e = env();
        // Together the premises say `rating >= 7` needs a trav_reimb that
        // is both >= 1 and <= 0: classically, rating >= 7 is impossible.
        // But an object with a null trav_reimb leaves both Unknown.
        let set = PremiseSet::new(
            &[
                Formula::cmp("rating", CmpOp::Ge, 7i64).implies(Formula::cmp(
                    "trav_reimb",
                    CmpOp::Ge,
                    1i64,
                )),
                Formula::cmp("rating", CmpOp::Ge, 7i64).implies(Formula::cmp(
                    "trav_reimb",
                    CmpOp::Le,
                    0i64,
                )),
            ],
            &e,
        );
        let guard = Formula::cmp("rating", CmpOp::Ge, 8i64);
        assert!(!set.refutes(&guard, &e), "trav_reimb may be null");
        // A conjunct forcing trav_reimb non-null makes both premises usable,
        // also under a negation.
        let forced = guard
            .clone()
            .and(Formula::cmp("trav_reimb", CmpOp::Eq, 3i64));
        assert!(set.refutes(&forced, &e));
        let negated = guard
            .clone()
            .and(Formula::Not(Box::new(Formula::isin("trav_reimb", [3i64]))));
        assert!(set.refutes(&negated, &e));
        // A disjunction can be True through its other side: it forces
        // nothing.
        let either = guard.and(Formula::cmp("trav_reimb", CmpOp::Eq, 3i64).or(Formula::cmp(
            "salary",
            CmpOp::Ge,
            1.0,
        )));
        assert!(!set.refutes(&either, &e));
        // With no usable premise the type environment still refutes.
        assert!(set.refutes(&Formula::cmp("rating", CmpOp::Gt, 10i64), &e));
    }

    #[test]
    fn premise_set_entailment_matches_restricted_implication() {
        let e = env();
        let enforced = [
            Formula::cmp("rating", CmpOp::Ge, 5i64),
            Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice")),
        ];
        let set = PremiseSet::new(&enforced, &e);
        for target in [
            Formula::cmp("rating", CmpOp::Ge, 2i64),
            Formula::cmp("rating", CmpOp::Ge, 6i64),
            Formula::cmp("libprice", CmpOp::Le, 1e9),
            Formula::Cmp(Expr::attr("libprice"), CmpOp::Le, Expr::attr("shopprice")),
            Formula::cmp("rating", CmpOp::Le, 10i64),
        ] {
            assert_eq!(
                set.entails(&target, &e),
                implied_by_restricted(&enforced, &target, &e),
                "{target}"
            );
        }
    }

    #[test]
    fn arithmetic_free_classification() {
        assert!(arithmetic_free(&Formula::cmp("rating", CmpOp::Ge, 5i64)));
        assert!(arithmetic_free(&Formula::isin("trav_reimb", [10i64, 20])));
        let arith = Formula::Cmp(
            Expr::Bin(
                Box::new(Expr::attr("rating")),
                ArithOp::Add,
                Box::new(Expr::val(1i64)),
            ),
            CmpOp::Ge,
            Expr::val(5i64),
        );
        assert!(!arithmetic_free(&arith));
        // Arithmetic targets are refused outright.
        assert!(!implied_by_restricted(&[Formula::True], &arith, &env()));
    }

    /// Atoms of every kind the theory state records: domain restrictions,
    /// difference bounds, discrete (dis)equalities between paths, and
    /// `contains`/`not contains`.
    fn arb_atom() -> impl Strategy<Value = Formula> {
        let op = prop::sample::select(vec![
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]);
        let name = prop::sample::select(vec!["ACM", "IEEE", "Springer"]);
        prop_oneof![
            (op.clone(), 0i64..12).prop_map(|(o, c)| Formula::cmp("rating", o, c)),
            prop::collection::btree_set(0i64..12, 1..4)
                .prop_map(|s| Formula::isin("trav_reimb", s)),
            (op, prop::sample::select(vec![-2.0, 0.0, 3.0])).prop_map(|(o, c)| {
                Formula::Cmp(
                    Expr::Bin(
                        Box::new(Expr::attr("libprice")),
                        ArithOp::Add,
                        Box::new(Expr::val(c)),
                    ),
                    o,
                    Expr::attr("shopprice"),
                )
            }),
            (name.clone(), any::<bool>()).prop_map(|(n, eq)| {
                Formula::cmp("publisher.name", if eq { CmpOp::Eq } else { CmpOp::Ne }, n)
            }),
            (any::<bool>(), any::<bool>()).prop_map(|(eq, flip)| {
                let (a, b) = if flip {
                    ("alias", "publisher.name")
                } else {
                    ("publisher.name", "alias")
                };
                Formula::Cmp(
                    Expr::attr(a),
                    if eq { CmpOp::Eq } else { CmpOp::Ne },
                    Expr::attr(b),
                )
            }),
            (prop::sample::select(vec!["E", "AC", "ring"]), any::<bool>()).prop_map(|(s, neg)| {
                let c = Formula::Contains(Expr::attr("publisher.name"), s.into());
                if neg {
                    Formula::Not(Box::new(c))
                } else {
                    c
                }
            }),
            prop::collection::btree_set(name, 1..3).prop_map(|s| Formula::In(
                Expr::attr("alias"),
                s.into_iter().map(Value::str).collect()
            )),
            any::<bool>().prop_map(|b| Formula::cmp("ref?", CmpOp::Eq, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Once a branch's state is dead, no further atom revives it, and
        /// the full check agrees: the search may drop the branch there.
        #[test]
        fn a_dead_state_stays_dead(atoms in prop::collection::vec(arb_atom(), 1..12)) {
            let e = env();
            let mut st = Conj::new();
            let mut died = false;
            for atom in &atoms {
                st.add_atom(&e, atom);
                prop_assert!(st.dead || !died, "{} revived a dead state", atom);
                died = st.dead;
                if died {
                    prop_assert!(st.clone().unsat(&e));
                }
            }
        }

        /// A clone taken on the way down is a state of its own: the full
        /// check gives every clone of a prefix's state the answer of a
        /// state built from that prefix alone, whatever the original
        /// asserts after the clone was taken.
        #[test]
        fn the_full_check_answers_alike_on_every_clone(
            atoms in prop::collection::vec(arb_atom(), 1..12)
        ) {
            let e = env();
            let mut st = Conj::new();
            let mut clones = Vec::new();
            for atom in &atoms {
                st.add_atom(&e, atom);
                clones.push(st.clone());
            }
            for (n, clone) in clones.into_iter().enumerate() {
                let mut fresh = Conj::new();
                for atom in &atoms[..=n] {
                    fresh.add_atom(&e, atom);
                }
                let verdict = fresh.unsat(&e);
                prop_assert_eq!(clone.clone().unsat(&e), verdict);
                prop_assert_eq!(clone.unsat(&e), verdict);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The lemma behind `conjunction_witness`: the theory check is
        /// monotone. When the state built from a list of atoms survives
        /// the full check, the state built from any sub-list, in any
        /// order, is never dead on the way and survives too.
        #[test]
        fn every_shuffled_sub_list_of_a_surviving_list_survives(
            atoms in prop::collection::vec(arb_theory_atom(), 1..16),
            picks in prop::collection::vec((any::<bool>(), any::<u32>()), 16..17)
        ) {
            let e = theory_env();
            prop_assert!(e.base_domain(&Path::parse("void")).is_empty());
            let mut full = Conj::new();
            for atom in &atoms {
                full.add_atom(&e, atom);
            }
            if !full.unsat(&e) {
                // In the drawn order: the drawn sub-list, and each list
                // short of one atom.
                let mut order: Vec<(u32, bool, &Formula)> = picks
                    .iter()
                    .zip(&atoms)
                    .map(|(&(keep, key), atom)| (key, keep, atom))
                    .collect();
                order.sort_by_key(|&(key, ..)| key);
                let mut subs: Vec<Vec<&Formula>> = vec![order
                    .iter()
                    .filter(|(_, keep, _)| *keep)
                    .map(|&(.., atom)| atom)
                    .collect()];
                for left_out in 0..order.len() {
                    subs.push(
                        order
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != left_out)
                            .map(|(_, &(.., atom))| atom)
                            .collect(),
                    );
                }
                for sub in subs {
                    let mut st = Conj::new();
                    for atom in sub {
                        st.add_atom(&e, atom);
                        prop_assert!(!st.dead, "{} killed a sub-list of a surviving list", atom);
                    }
                    prop_assert!(!st.unsat(&e), "a sub-list of a surviving list is refuted");
                }
            }
        }
    }

    /// Few paths over small domains, so that the atoms of one list often
    /// meet: two integer paths `m` and `n` over `0..3`, two string paths
    /// `s` and `t`, and `void`, whose type domain is empty. `u` is left
    /// untyped, as the analyzer leaves a path more than one reference
    /// deep, so numeric and discrete atoms meet on it.
    fn theory_env() -> TypeEnv {
        TypeEnv::new()
            .with("m", Type::Range(0, 3))
            .with("n", Type::Range(0, 3))
            .with("s", Type::Str)
            .with("t", Type::Str)
            .with("void", Type::Range(3, 1))
    }

    /// Atoms of every kind the theory state records, over
    /// [`theory_env`]'s paths: bounds, `=`/`!=` against constants,
    /// comparisons and difference bounds between two paths, `in`/`not
    /// in`, `contains`/`not contains` (on `s` and `u` only, so that they
    /// meet), and atoms over `void`. The untyped `u` takes the numeric
    /// and the string atoms, and `=`/`!=`/`in`/`not in` against values
    /// of mixed kinds, with numbers written both as integers and as
    /// reals (`1` and `1.0`).
    fn arb_theory_atom() -> impl Strategy<Value = Formula> {
        let op = prop::sample::select(vec![
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]);
        let num = prop::sample::select(vec!["m", "n", "void", "u"]);
        let text = prop::sample::select(vec!["s", "t", "u"]);
        let word = prop::sample::select(vec!["x", "y", "xy"]);
        let pair = prop::sample::select(vec![
            ("m", "n"),
            ("n", "m"),
            ("s", "t"),
            ("t", "s"),
            ("u", "m"),
            ("s", "u"),
        ]);
        let mixed = prop::sample::select(vec![
            Value::int(1),
            Value::int(2),
            Value::Real(R64::new(1.0)),
            Value::Real(R64::new(1.5)),
            Value::Real(R64::new(2.0)),
            Value::str("x"),
            Value::str("xy"),
            Value::Bool(true),
            Value::Null,
        ]);
        let not = |f: Formula, neg: bool| if neg { Formula::Not(Box::new(f)) } else { f };
        prop_oneof![
            (num.clone(), op.clone(), 0i64..4).prop_map(|(p, o, c)| Formula::cmp(p, o, c)),
            (num.clone(), num.clone(), op.clone(), -1i64..2).prop_map(|(p, q, o, k)| {
                let lhs = if k == 0 {
                    Expr::attr(p)
                } else {
                    Expr::Bin(
                        Box::new(Expr::attr(p)),
                        ArithOp::Add,
                        Box::new(Expr::val(k)),
                    )
                };
                Formula::Cmp(lhs, o, Expr::attr(q))
            }),
            (
                num,
                prop::collection::btree_set(0i64..4, 1..3),
                any::<bool>()
            )
                .prop_map(move |(p, vs, neg)| not(Formula::isin(p, vs), neg)),
            (text.clone(), word.clone(), any::<bool>()).prop_map(|(p, w, eq)| {
                Formula::cmp(p, if eq { CmpOp::Eq } else { CmpOp::Ne }, w)
            }),
            (pair, any::<bool>()).prop_map(|((p, q), eq)| {
                Formula::Cmp(
                    Expr::attr(p),
                    if eq { CmpOp::Eq } else { CmpOp::Ne },
                    Expr::attr(q),
                )
            }),
            (text, prop::collection::btree_set(word, 1..3), any::<bool>()).prop_map(
                move |(p, ws, neg)| {
                    not(
                        Formula::In(Expr::attr(p), ws.into_iter().map(Value::str).collect()),
                        neg,
                    )
                }
            ),
            (mixed.clone(), any::<bool>()).prop_map(|(v, eq)| {
                Formula::Cmp(
                    Expr::attr("u"),
                    if eq { CmpOp::Eq } else { CmpOp::Ne },
                    Expr::Const(v),
                )
            }),
            (prop::collection::btree_set(mixed, 1..4), any::<bool>())
                .prop_map(move |(vs, neg)| not(Formula::In(Expr::attr("u"), vs), neg)),
            (
                prop::sample::select(vec!["s", "u"]),
                prop::sample::select(vec!["x", "y"]),
                any::<bool>()
            )
                .prop_map(move |(p, w, neg)| {
                    not(Formula::Contains(Expr::attr(p), w.into()), neg)
                }),
        ]
    }

    /// `grade = i ⇒ score ≥ i mod 8 + 2` for `i < n`.
    fn conditionals(n: i64) -> Vec<Formula> {
        (0..n)
            .map(|i| {
                Formula::cmp("grade", CmpOp::Eq, i).implies(Formula::cmp(
                    "score",
                    CmpOp::Ge,
                    i % 8 + 2,
                ))
            })
            .collect()
    }

    fn cond_env() -> TypeEnv {
        TypeEnv::new()
            .with("grade", Type::Int)
            .with("score", Type::Range(1, 10))
            .with("p", Type::Int)
    }

    #[test]
    fn a_witness_decides_a_family_of_conditionals() {
        let e = cond_env();
        let family: Vec<Prepared> = conditionals(33).iter().map(Prepared::new).collect();
        // 2^33 branches, far past the size gate: the pair check's
        // whole-conjunction verdict would not be decided, the witness is.
        assert!(conjunction_witness(&family, &e));
        for (i, a) in family.iter().enumerate() {
            for b in &family[i + 1..] {
                assert!(conjunction_satisfiable([a, b], &e));
            }
        }
    }

    #[test]
    fn an_unconditional_contradiction_ends_the_search_at_once() {
        let e = cond_env();
        let mut fs = conditionals(30);
        fs.push(Formula::cmp("score", CmpOp::Ge, 8i64));
        fs.push(Formula::cmp("score", CmpOp::Le, 3i64));
        let family: Vec<Prepared> = fs.iter().map(Prepared::new).collect();
        // The atoms are asserted before any disjunction, so the first
        // branch dies and the search ends there.
        let mut budget = DNF_CAP;
        assert!(!witness_within(&family, &e, &mut budget));
        assert_eq!(budget, DNF_CAP - 1);
    }

    /// `p = 0 or p = 1`, then `m` free two-way choices, then `p = 1 or
    /// p = 2`: depth-first, every branch under `p = 0` dies at the last
    /// disjunction, two per leaf of the free choices, before `p = 1` is
    /// tried. The family is satisfiable (`p = 1`).
    fn late_witness(m: usize) -> Vec<Prepared> {
        let either = |a: Formula, b: Formula| Prepared::new(&a.or(b));
        let mut family = vec![either(
            Formula::cmp("p", CmpOp::Eq, 0i64),
            Formula::cmp("p", CmpOp::Eq, 1i64),
        )];
        for i in 0..m {
            let x = format!("x{i}");
            family.push(either(
                Formula::cmp(&x, CmpOp::Eq, 0i64),
                Formula::cmp(&x, CmpOp::Eq, 1i64),
            ));
        }
        family.push(either(
            Formula::cmp("p", CmpOp::Eq, 1i64),
            Formula::cmp("p", CmpOp::Eq, 2i64),
        ));
        family
    }

    #[test]
    fn the_search_stops_after_dnf_cap_branches() {
        let e = cond_env();
        // 2 · 2^7 = 256 dead branches come first: within the budget.
        assert!(conjunction_witness(&late_witness(7), &e));
        // 2 · 2^8 = 512 dead branches spend it exactly; 2 · 2^9 overrun it.
        assert_eq!(2 << 8, DNF_CAP);
        for m in [8, 9] {
            let family = late_witness(m);
            assert!(!conjunction_witness(&family, &e), "m = {m}");
            // Not found is not a refutation: every pair, and (past the
            // size gate) the whole family, is satisfiable.
            assert!(conjunction_satisfiable(&family, &e));
            for (i, a) in family.iter().enumerate() {
                for b in &family[i + 1..] {
                    assert!(conjunction_satisfiable([a, b], &e));
                }
            }
        }
    }

    #[test]
    fn a_false_part_has_no_witness() {
        let e = cond_env();
        let parts = [
            Prepared::new(&Formula::False),
            Prepared::new(&Formula::True),
        ];
        assert!(!conjunction_witness(&parts, &e));
        assert!(conjunction_witness([&parts[1]], &e));
        assert!(conjunction_witness([], &e));
    }

    #[test]
    fn implies_is_conservative_on_opaque() {
        // An opaque atom (string ordering) cannot prove entailment.
        let e = env();
        let f = Formula::Cmp(Expr::attr("publisher.name"), CmpOp::Lt, Expr::val("ZZZ"));
        assert!(!implies(&f, &Formula::cmp("rating", CmpOp::Ge, 2i64), &e));
        // But every formula implies True and False implies everything.
        assert!(implies(&f, &Formula::True, &e));
        assert!(implies(&Formula::False, &f, &e));
    }
}
