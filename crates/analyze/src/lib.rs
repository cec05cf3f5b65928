//! # interop-analyze
//!
//! Static analysis of interoperation specifications: a pre-flight pass
//! over the parsed schemas, constraint catalogs and integration spec
//! that finds defective specs *before the pipeline touches any data*.
//! The paper's thesis is that integrity constraints drive interoperation
//! — which means a bad spec silently corrupts every downstream phase;
//! this crate turns "fail 20 s into a merge" into "fail in milliseconds
//! at load".
//!
//! [`analyze`] runs a registry of checks and returns a canonical
//! [`Diagnostic`] stream:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | A001 | error    | constraint unsatisfiable over its declared domains |
//! | A002 | error    | two constraints effective on one class contradict |
//! | A003 | error    | local/remote constraints contradict after conformation |
//! | A004 | warning  | rule premise can never hold (dead rule) |
//! | A005 | warning  | rule shadowed by an earlier same-target rule |
//! | A006 | error    | propeqs give one declared attribute divergent actions |
//! | A007 | error    | comparison constant incompatible with declared domain |
//! | A008 | hint     | comparison conjunct can never be answered from an index |
//! | A009 | hint     | equality pair qualifies for a composite index |
//! | A010 | error    | spec cannot be conformed at all |
//!
//! The checks reuse the existing machinery end-to-end: the conservative
//! solver (`interop_constraint::solve`) for satisfiability, implication
//! and pairwise conjunctions; the conform phase's `build_plans` /
//! `PlanIndex` / `Rewriter` so cross-database comparisons happen on
//! exactly the formulas the pipeline would produce; and the storage
//! planner's atom recogniser and composite gain math for the planner
//! lints.
//!
//! # Invariants
//!
//! * **The stream is deterministic and canonical.** Diagnostics are
//!   sorted by (code, location, message), deduplicated, and rendered in
//!   a fixed format ([`diag::render`]) — two runs over the same input
//!   are byte-identical (pinned by the snapshot suite).
//! * **Conservative, like the solver it wraps.** Every `error` is a
//!   *proven* defect (an over-approximating satisfiability verdict never
//!   fires an unsat diagnostic on a satisfiable spec); silence is not a
//!   proof of correctness. The pair checks (A002, A003) answer each pair
//!   as the solver's pair question would: a family of constraints first
//!   gets one bounded witness search
//!   ([`conjunction_witness`](interop_constraint::solve::conjunction_witness)),
//!   whose witness makes every pair in the family satisfiable, and a
//!   family without one falls back to deciding each pair on its own, so
//!   the witness changes how fast the stream comes, never what it says.
//! * **One root cause, one code.** A constraint or premise reported
//!   broken by one check is suppressed from the downstream checks that
//!   would restate it (a type-broken atom is not also "unsatisfiable";
//!   an unsatisfiable constraint is not also half of every
//!   "contradictory pair").
//! * **Analysis never touches extensions.** The input is schemas,
//!   catalogs and the spec; object data is neither read nor required —
//!   the pre-flight gate runs before any load.
//!
//! The [`corpus`] module carries the seeded defect corpus: one fixture
//! per diagnostic code, used by the snapshot suite, the property suite
//! and the CLI's `--corpus` mode.

mod checks;
pub mod corpus;
pub mod diag;

use std::collections::BTreeSet;

use interop_constraint::Catalog;
use interop_model::Schema;
use interop_spec::Spec;

pub use diag::{canonicalize, render, Code, Diagnostic, Location, Severity};

/// Everything the analyzer looks at: the two sides' schemas and
/// constraint catalogs, and the integration spec between them. No
/// object data — analysis is purely static.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisInput<'a> {
    /// The local schema.
    pub local: &'a Schema,
    /// Constraints enforced by the local database.
    pub local_catalog: &'a Catalog,
    /// The remote schema.
    pub remote: &'a Schema,
    /// Constraints enforced by the remote database.
    pub remote_catalog: &'a Catalog,
    /// The integration specification.
    pub spec: &'a Spec,
}

/// Runs every registered check and returns the canonical diagnostic
/// stream (sorted, deduplicated — see [`diag::canonicalize`]).
pub fn analyze(input: &AnalysisInput<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Constraints found defective here are suppressed from the pair
    // checks downstream (one root cause, one code).
    let mut broken: BTreeSet<String> = BTreeSet::new();
    checks::constraints::check(input, &mut diags, &mut broken);
    checks::spec_rules::check(input, &mut diags, &broken);
    checks::conformed::check(input, &mut diags, &broken);
    canonicalize(diags)
}

/// True when the stream contains at least one `Error` diagnostic — the
/// strict pre-flight refusal predicate.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}
