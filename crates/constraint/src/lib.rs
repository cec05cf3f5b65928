//! # interop-constraint
//!
//! The constraint language and its decision procedures — the formal core
//! that the reproduction of Vermeer & Apers (VLDB 1996) is built on.
//!
//! The paper distinguishes *object constraints* (implicitly universally
//! quantified over the instances of a class), *class constraints*
//! (aggregates over the class extension plus key constraints), and
//! *database constraints* (quantified across classes). All three are
//! represented here, together with:
//!
//! * an evaluator ([`eval`]) checking constraints against populated
//!   databases (the "enforced by the component databases" premise),
//! * a normaliser ([`normalize`]) producing the paper's *normalised*
//!   constraints (top-level conjunctions split apart, §5.2.1),
//! * a typed **domain algebra** ([`domain`]) — unions of intervals over
//!   numerics and finite/cofinite sets over discrete values — which is the
//!   machinery behind both constraint conformation (applying conversion
//!   functions to constraint constants, §4) and global-constraint
//!   derivation through decision functions (§5.2.1),
//! * a sound satisfiability / implication solver ([`solve`]) for the
//!   paper's constraint fragment, used to detect *explicit conflicts*
//!   (`Ω̂ ⊨ false`) and check strict-similarity admission (`Ω' ⊨ Ω̂`),
//! * a syntactic classifier ([`classify`]) assigning raw constraints to
//!   the object/class/database categories (the role played by the IMPRESS
//!   design toolbox \[FKS94\] in the paper).
//!
//! # Invariants
//!
//! * **The solver errs in one direction only.** Opaque atoms are
//!   dropped (an over-approximation of the solution set), so
//!   [`solve::is_satisfiable`] means "not *provably* empty" and
//!   [`solve::implies`] returns `true` only for proven entailments.
//!   Conflict detection, constraint admission, query pruning and
//!   implied-true dropping are all safe against this direction; none is
//!   safe against the opposite one.
//! * **A verdict is the capped DNF's.** [`solve::is_satisfiable`],
//!   [`solve::implies`], [`solve::conjunction_unsat`] and
//!   [`solve::conjunction_satisfiable`] answer what the DNF expansion
//!   gives when it has at most [`solve::DNF_CAP`] conjuncts — satisfiable
//!   iff some conjunct survives the per-conjunct theory check — and past
//!   the cap the answer is "satisfiable", the conservative direction. How
//!   the answer is found (a depth-first search over the expansion of
//!   formulas normalised once, never building it) is mechanism, not
//!   contract; `tests/prop_solver.rs` keeps the expansion as its oracle.
//! * **A witness answers for every subset.** When
//!   [`solve::conjunction_witness`] finds a branch of a conjunction of
//!   prepared parts, [`solve::conjunction_satisfiable`] answers
//!   "satisfiable" on any subset of those parts, because the per-branch
//!   theory check is monotone in the atoms asserted. "Not found" claims
//!   nothing: the search may simply have run out of its branch budget.
//! * **Evaluation is three-valued** ([`eval::Truth`]): a null attribute
//!   makes an atom `Unknown`, never `True`/`False`. Constraint
//!   *enforcement* accepts `Unknown` (a constraint is violated only when
//!   provably `False`) while query answers require `True` — the
//!   asymmetry the planner's coverage rules exist for
//!   ([`solve::implied_by_restricted`], [`solve::PremiseSet`]): a
//!   premise may join a proof about an object only where all of its
//!   paths are known non-null.
//! * **Domains are closed under the algebra**: intersection, union,
//!   complement and affine images of interval unions / (co)finite sets
//!   stay within [`domain::Domain`], with mixed numeric/discrete
//!   carriers widening conservatively.
//!
//! # Example
//!
//! ```
//! use interop_constraint::solve::{implies, is_satisfiable, TypeEnv};
//! use interop_constraint::{CmpOp, Formula};
//! use interop_model::Type;
//!
//! let env = TypeEnv::new().with("rating", Type::Range(1, 10));
//! let derived = Formula::cmp("rating", CmpOp::Ge, 5i64);
//! // A subquery contradicting the derived constraint is provably empty…
//! let doomed = derived.clone().and(Formula::cmp("rating", CmpOp::Lt, 3i64));
//! assert!(!is_satisfiable(&doomed, &env));
//! // …and entailment is proven, not guessed.
//! assert!(implies(&derived, &Formula::cmp("rating", CmpOp::Ge, 2i64), &env));
//! ```

pub mod classify;
pub mod constraint;
pub mod domain;
pub mod eval;
pub mod expr;
pub mod normalize;
pub mod solve;

pub use classify::{classify_formula, ConstraintKind};
pub use constraint::{
    Catalog, ClassConstraint, ClassConstraintBody, ConstraintId, DbConstraint, ObjectConstraint,
    PairAtom, Quantifier, Status,
};
pub use domain::{Bnd, DiscSet, Domain, Iv, NumSet};
pub use eval::{eval_formula, Truth};
pub use expr::{AggOp, ArithOp, CmpOp, Expr, Formula, Path};
pub use solve::{GuardedAtom, TypeEnv};
