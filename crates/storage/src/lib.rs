//! # interop-storage
//!
//! An in-memory, constraint-enforcing object store — the component-DBMS
//! substrate the paper assumes ("the scope of this paper is restricted to
//! constraints that are being enforced by the component databases").
//!
//! A [`Store`] couples a populated [`interop_model::Database`] with its
//! [`interop_constraint::Catalog`] and rejects inserts/updates that
//! violate any object, class, or database constraint. [`txn`] adds
//! multi-operation transactions with validate-then-commit semantics and
//! rollback, plus the *early validation* API that powers the paper's
//! motivating use-case of pre-validating global update subtransactions.
//! [`mvcc`] promotes the store to multi-version concurrency — many
//! sessions over one shared store, snapshot reads, first-committer-wins
//! conflict detection — and [`oracle`] verifies it black-box, by
//! checking recorded concurrent histories for an acyclic serialization
//! graph. [`query`]/[`plan`]/[`optimize`] implement predicate queries and the
//! paper's other motivating use-case: optimising queries with derived
//! global constraints. The [`plan`] module compiles a predicate into
//! index-satisfiable, constraint-pruned (implied-true), and residual
//! conjuncts and costs it against per-`(class, attr)` statistics
//! ([`stats`]); [`optimize`] executes the costed plan against lazily
//! built secondary indexes (hash postings for equality, sorted entries
//! for ranges), pruning subqueries whose predicate contradicts a
//! (derived) global constraint without scanning at all, and exposes
//! every decision through [`Optimizer::explain`]. [`wal`] and
//! [`snapshot`] add durability: [`Store::open`] recovers the newest
//! valid snapshot plus the committed tail of a size-rotated segmented
//! write-ahead log, group commit ([`wal::GroupSync`]) amortizes the
//! commit-boundary fsync across concurrent sessions (with pipelined
//! acknowledgement via [`mvcc::MvccTxn::commit_pipelined`]), and
//! [`store::DurabilityMode::Off`] keeps every in-memory path exactly as
//! before.
//!
//! # Invariants
//!
//! * **Posting lists are sorted by id and duplicate-free** — batch
//!   intersection is a linear merge; the incremental delta operations
//!   preserve the invariant by binary-searched insertion. Composite
//!   pair postings ([`index::CompositeIndex`]) obey the same rules.
//! * **Nulls are never indexed.** A posting hit *is* `Truth::True` for
//!   its conjunct under three-valued semantics; equality postings skip
//!   nulls, sorted indexes hold numerics only, and a composite skips an
//!   object when *either* component is null (the conjunction would be
//!   `Unknown`).
//! * **Pair canonicalisation**: a composite is keyed by the ascending
//!   attribute pair and by [`index::canon_key`]-canonical values, so the
//!   admission sketch, the planner's [`plan::CompositeProbe`] and the
//!   store's cache agree on exactly one key per unordered pair, and
//!   `Int(3)`/`Real(3.0)` collide per `sem_eq` in either component.
//! * **Admission is workload state, not data state**: the recurring-pair
//!   sketch and admitted set ([`store::CompositePolicy`]) survive
//!   mutations and wholesale cache discards; only the materialised
//!   composite indexes live in the secondary cache and are
//!   delta-maintained (or discarded) like every other structure.
//! * **Statistics are exact under deltas** ([`stats::AttrStats`]):
//!   totals, non-null/numeric counts, per-value frequencies and
//!   per-bucket histogram counts match a from-scratch recomputation
//!   after any committed op sequence (property-tested); only histogram
//!   *boundaries* age, and drifted summaries rebuild on access.
//! * **The cache can never serve a stale entry**: every mutation
//!   attempt bumps [`Store::version`] and either applies deltas and
//!   stamps the cache (incremental mode) or discards it (wholesale
//!   mode) before returning.
//! * **Pruning never drops a hit**: a predicate is answered
//!   [`OptimizeOutcome::PrunedEmpty`] only when it contradicts the
//!   constraints whose paths all lie inside the paths its top-level
//!   atomic conjuncts force non-null
//!   ([`interop_constraint::solve::PremiseSet::refutes`]). The store
//!   rejects only `False`, so a stored object may leave any other
//!   constraint `Unknown`; implied-true dropping follows the same
//!   path-subset rule, over the conjunct's own (covered) paths.
//! * **EXPLAIN is execution**: [`Optimizer::explain`] and
//!   [`Optimizer::execute`] share one decision path, so the reported
//!   strategy is the executed one.
//! * **Commit-boundary atomicity** ([`wal`]): a transaction reaches the
//!   write-ahead log only as one contiguous `Begin … deltas … Commit`
//!   run appended after it fully succeeded in memory; rollbacks append
//!   nothing of the transaction, and recovery applies a transaction
//!   only when its `Commit` frame is intact — never a prefix.
//! * **Torn tails are discarded, never reinterpreted**: WAL replay
//!   stops at the first frame that fails its length or CRC-32 check and
//!   truncates the log back to the last committed boundary — a
//!   later frame that happens to checksum correctly is unreachable by
//!   construction, because frame boundaries after a tear cannot be
//!   trusted.
//! * **[`store::DurabilityMode::Off`] is byte-identical**: a store
//!   created by [`Store::new`] (or detached-cloned from any store)
//!   takes the exact pre-durability code paths — no file I/O, no
//!   record serialisation, no behavioural drift for existing benches
//!   or tests.
//! * **Detaching is explicit**: `Store` does not implement `Clone`.
//!   Copying a store goes through [`Store::detached_clone`], whose
//!   name states the contract — the copy has [`store::DurabilityMode::Off`]
//!   and shares no WAL handle — so no call site silently "persists"
//!   into a copy whose log no longer exists. The copy is O(1) in the
//!   number of objects and constraints: the objects and the key
//!   indexes are persistent maps ([`interop_model::PMap`]) and the
//!   catalog is shared, so both stores share that state and each write
//!   copies only the O(log n) path it touches.
//! * **Readers never block writers** ([`mvcc`]): a transaction reads
//!   an immutable published `Arc` snapshot; each commit publishes an
//!   O(1) detached clone of the canonical store, with its versions map,
//!   by swapping in a new `Arc`. No reader holds any lock while a
//!   commit runs, and an in-flight reader's view never changes: the
//!   canonical store's next write copies the nodes it shares with the
//!   snapshot instead of writing through them.
//! * **First committer wins** ([`mvcc`]): of two overlapping write
//!   sets, the second commit fails with
//!   [`mvcc::CommitError::WriteConflict`]; under the default
//!   [`mvcc::ValidationMode::Serializable`] read sets are validated
//!   too, and every admitted history is serializable — property-tested
//!   against the black-box [`oracle`], whose ability to *reject* is
//!   itself tested on seeded write-skew histories.
//! * **Commits serialize into the WAL in timestamp order**: the MVCC
//!   commit path re-submits buffered ops through the canonical store
//!   under the commit mutex, so the log's `Begin…Commit` run order is
//!   the commit-timestamp order — itself a valid serialization order
//!   of the recorded history.
//! * **Acknowledged never means lost** ([`wal::GroupSync`]): every run
//!   reaches the log through one append path, and every commit —
//!   [`Transaction::commit`], [`mvcc::MvccTxn::commit`], a redeemed
//!   [`mvcc::CommitTicket`] — is acknowledged only after a
//!   `sync_data` covering its log bytes has succeeded. A crash loses
//!   at most a *suffix* of published-but-unacknowledged commits —
//!   recovery always yields a commit-order prefix containing every
//!   acknowledged transaction.
//! * **Every failed log sync latches** ([`wal::GroupSync`]): a
//!   leader's sync (a single writer's included) and a segment seal (a
//!   snapshot's included) report to one sticky error. It is reported
//!   to every waiter not yet covered, and from then on nothing is
//!   appended, synced, sealed or acknowledged — a retried fsync can
//!   falsely succeed, so none is trusted — and no snapshot is written.
//! * **The log shrinks only by whole sealed segments**
//!   ([`Store::snapshot_now`]): every snapshot seals the active
//!   segment, is written from the captured commit point, and only then
//!   deletes the sealed segments it covers. No file of the log is cut
//!   except by recovery's torn-tail cut ([`wal::WalWriter::open`]) and
//!   the restore of a failed append
//!   ([`wal::WalWriter::append_buffered`]), neither of which removes an
//!   acknowledged frame; `scripts/lint_invariants.py` keeps `set_len(`
//!   out of every other library line of this crate.
//!
//! # Example
//!
//! ```
//! use interop_constraint::{Catalog, CmpOp, Formula};
//! use interop_model::{ClassDef, Database, Schema, Type};
//! use interop_storage::{OptimizeOutcome, Optimizer, Store};
//!
//! let schema = Schema::new(
//!     "Shop",
//!     vec![ClassDef::new("Item").attr("rating", Type::Range(1, 10))],
//! )
//! .unwrap();
//! let mut store = Store::new(Database::new(schema, 1), Catalog::new());
//! store.create("Item", vec![("rating", 7i64.into())]).unwrap();
//!
//! // A derived global constraint lets the optimiser prune.
//! let opt = Optimizer::new(&store, "Item", vec![Formula::cmp("rating", CmpOp::Ge, 5i64)]);
//! let doomed = Formula::cmp("rating", CmpOp::Lt, 5i64);
//! let (hits, how) = opt.execute(&store, &doomed).unwrap();
//! assert!(hits.is_empty());
//! assert_eq!(how, OptimizeOutcome::PrunedEmpty);
//! // And the decision is inspectable:
//! assert!(opt.explain(&store, &doomed).to_string().contains("pruned-empty"));
//! ```

pub mod index;
pub mod mvcc;
pub mod optimize;
pub mod oracle;
pub mod plan;
pub mod query;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod txn;
pub mod wal;

pub use index::{CompositeIndex, HashIndex, KeyIndex, SortedIndex};
pub use mvcc::{
    CommitError, CommitTicket, MvccStore, MvccTxn, RetryPolicy, RunTxnError, ValidationMode,
};
pub use optimize::{execute_costed, Explain, ExplainStrategy, OptimizeOutcome, Optimizer};
pub use oracle::{
    check, check_order, replay, serialization_edges, Edge, EdgeKind, Item, QueryRecord, TxnRecord,
    Verdict,
};
pub use plan::{
    composite_gain_hint, indexable_atoms, CompositeProbe, CostedPlan, CostedRole, IndexAtom,
    ProbeStep,
};
pub use query::Query;
pub use snapshot::SnapshotData;
pub use stats::{AttrStats, PairSketch};
pub use store::{
    CompositePolicy, DurabilityMode, IndexMaintenance, SnapshotFailure, Store, StoreError,
};
pub use txn::{Transaction, TxnOp, TxnOutcome};
pub use wal::{DurabilityError, WalAck, WalRecord};
