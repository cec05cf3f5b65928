//! The solver's satisfiability check as it was before the lazy search,
//! kept verbatim as the oracle of the differential tests: expand the
//! formula to DNF (giving up past `DNF_CAP` conjuncts), then run the
//! per-conjunct theory on a fresh state for every conjunct. Only the
//! paths of the crate items it names changed.

use std::collections::{BTreeMap, BTreeSet};

use interop_constraint::normalize::dnf;
use interop_constraint::solve::{TypeEnv, DNF_CAP};
use interop_constraint::{ArithOp, Bnd, CmpOp, DiscSet, Domain, Expr, Formula, NumSet, Path};
use interop_model::{Value, R64};

/// An affine view of an expression: `coeff · path + offset` (path may be
/// absent for pure constants).
struct Lin {
    coeff: R64,
    path: Option<Path>,
    offset: R64,
}

fn linearize(e: &Expr) -> Option<Lin> {
    match e {
        Expr::Const(v) => Some(Lin {
            coeff: R64::new(0.0),
            path: None,
            offset: v.as_num()?,
        }),
        Expr::Attr(p) => Some(Lin {
            coeff: R64::new(1.0),
            path: Some(p.clone()),
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
                            path: Some(p.clone()),
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

/// Per-conjunct solver state.
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

    fn restrict(&mut self, env: &TypeEnv, p: &Path, d: &Domain) {
        let cur = self.domain_mut(env, p);
        *cur = cur.intersect(d);
        if cur.is_empty() {
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
                    if let Some(p) = l.path.clone() {
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
                                let d = Domain::from_values(&pre, env.integral(&p));
                                self.restrict(env, &p, &d);
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
            match (&la.path, &lb.path) {
                (Some(_), None) | (None, Some(_)) => {
                    // coeff·p + off op const  (or reversed)
                    let (p, coeff, off, konst, op) = if let Some(p) = &la.path {
                        (p.clone(), la.coeff, la.offset, lb.offset, op)
                    } else {
                        let p = lb.path.clone().expect("checked by match arm");
                        (p, lb.coeff, lb.offset, la.offset, op.flip())
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
                    let d = Domain::Num(NumSet::from_cmp(env.integral(&p), op, rhs));
                    self.restrict(env, &p, &d);
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
                        Bnd::Incl(v) => edges.push((*i, 0, -v, false)),
                        Bnd::Excl(v) => edges.push((*i, 0, -v, true)),
                        _ => {}
                    }
                }
                if let Some(last) = ns.intervals().last() {
                    match last.hi {
                        Bnd::Incl(v) => edges.push((0, *i, v, false)),
                        Bnd::Excl(v) => edges.push((0, *i, v, true)),
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
/// be ruled out (over-approximation: opaque atoms are dropped, DNF blow-up
/// returns `true`).
pub fn is_satisfiable(f: &Formula, env: &TypeEnv) -> bool {
    match dnf(f, DNF_CAP) {
        None => true, // too big to decide — assume satisfiable
        Some(conjs) => conjs.into_iter().any(|c| {
            let mut st = Conj::new();
            for atom in &c {
                st.add_atom(env, atom);
            }
            !st.unsat(env)
        }),
    }
}
