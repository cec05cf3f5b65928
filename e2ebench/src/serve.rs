//! `serve_read`: one client runs a seeded read/write mix against a
//! `Store` holding the integrated view of the `integrate_wide` pair,
//! with the derived global constraints in its catalog.
//!
//! The mix exercises the paper's two §1 use cases: subqueries that
//! contradict a derived constraint are answered empty without touching
//! data, and writes violating one are rejected before they apply.

use std::time::Instant;

use interop_constraint::{CmpOp, Formula};
use interop_model::{AttrName, ClassName, ObjectId, Value};
use interop_storage::{OptimizeOutcome, Optimizer, Query, Store, StoreError};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use crate::inputs::pick;
use crate::integrate::{config, integrate, prepare, Shape};
use crate::metrics::{self, Better, Metric, Phase, Series};
use crate::speed::Probe;
use crate::trace::Tracer;
use crate::{timed_setup, Report, RunOpts, WARMUP_SHARE};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `key = k`: the key-index fast path.
    Key,
    /// `grade = g and score = s` over the hot pairs: composite
    /// admission.
    Pair,
    /// A narrow `price` range: the sorted index.
    Range,
    /// A subquery contradicting a derived constraint: empty, and pruned
    /// without touching data when the solver proves the contradiction
    /// (it gives up on conjunctions too large to expand, and then the
    /// planner executes the query).
    Pruned,
    /// `grade = g`: a broad single-attribute read.
    Broad,
    /// A `price` update; a fifth of them write a negative price, which
    /// the derived `price >= 0` rejects.
    Write,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Key => "storage.optimize.key_us",
            Kind::Pair => "storage.optimize.pair_us",
            Kind::Range => "storage.optimize.range_us",
            Kind::Pruned => "storage.optimize.pruned_us",
            Kind::Broad => "storage.optimize.broad_us",
            Kind::Write => "storage.store.update_us",
        }
    }
}

/// One client request: these operations in a seeded random order, dealt
/// over the classes by [`request`]. Per request, 40% key lookups, 20%
/// hot pairs, 15% narrow ranges, 10% contradicting subqueries, 5% broad
/// reads and 10% writes. Every request has the same make-up, so request
/// latency has one mode instead of one per operation kind.
const REQUEST: [(Kind, usize); 6] = [
    (Kind::Key, 8),
    (Kind::Pair, 4),
    (Kind::Range, 3),
    (Kind::Pruned, 2),
    (Kind::Broad, 1),
    (Kind::Write, 2),
];

/// Hot `(grade, score)` pairs per class, taken from random objects.
/// Composites are admitted per attribute pair, so their number does not
/// matter to admission; many of them keep one seed's pairs from being
/// much more or less selective than another's.
const HOT_PAIRS: usize = 16;

enum Op {
    Read {
        kind: Kind,
        class: usize,
        pred: Formula,
    },
    Write {
        id: ObjectId,
        price: f64,
        reject: bool,
    },
}

/// What the client needs to know about one materialised class.
struct ClassPlan {
    class: ClassName,
    opt: Optimizer,
    ids: Vec<ObjectId>,
    keys: Vec<Value>,
    hot: Vec<(Value, Value)>,
    doomed: Vec<Formula>,
}

struct Served {
    store: Store,
    classes: Vec<ClassPlan>,
    derived: usize,
}

/// A predicate contradicting `f`: `a and not b` for `a implies b`,
/// else `not f`.
fn contradiction(f: &Formula) -> Formula {
    match f {
        Formula::Implies(a, b) => (**a).clone().and((**b).clone().negate()),
        other => other.clone().negate(),
    }
}

fn setup(opts: RunOpts) -> Result<Served, String> {
    let p = prepare(config(Shape::Wide, opts.scale, opts.seed))?;
    let mut quiet = Tracer::new(false, Instant::now());
    let integrated = integrate(&p.texts, p.local, p.remote, &mut quiet)?;
    let derived = integrated.outcome.global.object.len();
    let store = integrated.store;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5e7e);
    let mut classes = Vec::new();
    let names: Vec<ClassName> = store.db().schema.class_names().cloned().collect();
    for class in names {
        let ids = store.db().extension(&class);
        if ids.is_empty() {
            continue;
        }
        let attr = |id: &ObjectId, a: &str| {
            store
                .db()
                .object(*id)
                .map_or(Value::Null, |o| o.get(&AttrName::new(a)).clone())
        };
        let keys = ids.iter().map(|id| attr(id, "key")).collect();
        let hot = (0..HOT_PAIRS)
            .map(|_| {
                let id = pick(&mut rng, &ids);
                (attr(id, "grade"), attr(id, "score"))
            })
            .collect();
        let constraints: Vec<Formula> = store
            .catalog()
            .object_on(&class)
            .iter()
            .map(|c| c.formula.clone())
            .collect();
        let doomed: Vec<Formula> = constraints.iter().map(contradiction).collect();
        if doomed.is_empty() {
            return Err(format!("no derived constraint holds on {class}"));
        }
        let opt = Optimizer::new(&store, class.clone(), constraints);
        classes.push(ClassPlan {
            class,
            opt,
            ids,
            keys,
            hot,
            doomed,
        });
    }
    Ok(Served {
        store,
        classes,
        derived,
    })
}

fn make_op(kind: Kind, class: usize, rng: &mut StdRng, classes: &[ClassPlan]) -> Op {
    let c = &classes[class];
    let pred = match kind {
        Kind::Key => Formula::cmp("key", CmpOp::Eq, pick(rng, &c.keys).clone()),
        Kind::Pair => {
            let (g, s) = pick(rng, &c.hot).clone();
            Formula::cmp("grade", CmpOp::Eq, g).and(Formula::cmp("score", CmpOp::Eq, s))
        }
        Kind::Range => {
            let lo = rng.gen_range(1.0..500.0);
            Formula::cmp("price", CmpOp::Ge, lo).and(Formula::cmp("price", CmpOp::Lt, lo + 0.5))
        }
        Kind::Pruned => pick(rng, &c.doomed).clone(),
        Kind::Broad => Formula::cmp("grade", CmpOp::Eq, rng.gen_range(0..8i64)),
        Kind::Write => {
            let id = *pick(rng, &c.ids);
            let reject = rng.gen_range(0..5) == 0;
            let price = if reject {
                -rng.gen_range(1.0..100.0f64)
            } else {
                rng.gen_range(1.0..500.0)
            };
            return Op::Write { id, price, reject };
        }
    };
    Op::Read { kind, class, pred }
}

/// One request: the [`REQUEST`] kinds shuffled, then dealt to the
/// classes in turn from a random one, so every class gets a third of
/// the operations (one more or less). The classes differ in cost (the
/// merged one carries the most derived constraints), and drawing a class
/// per operation would make request cost vary with how many landed on
/// the costly one.
fn request(rng: &mut StdRng, classes: &[ClassPlan]) -> Vec<Op> {
    let mut kinds: Vec<Kind> = REQUEST
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    let first = rng.gen_range(0..classes.len());
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| make_op(kind, (first + i) % classes.len(), rng, classes))
        .collect()
}

/// Counters of one measured phase.
#[derive(Default)]
struct Tally {
    reads: u64,
    rows: u64,
    pruned: u64,
    scanned: u64,
    rejected: u64,
}

/// Runs one operation; `Ok(false)` means it went wrong (a failure, not
/// an expected rejection).
fn apply(op: &Op, s: &mut Served, tally: &mut Tally, tr: &mut Tracer) -> bool {
    match op {
        Op::Read { kind, class, pred } => {
            let c = &s.classes[*class];
            let store = &s.store;
            let result = tr.span(kind.span(), |_| c.opt.execute(store, pred));
            let Ok((hits, how)) = result else {
                return false;
            };
            tally.reads += 1;
            tally.rows += hits.len() as u64;
            match how {
                OptimizeOutcome::PrunedEmpty => tally.pruned += 1,
                OptimizeOutcome::Scanned => tally.scanned += 1,
                _ => {}
            }
            match kind {
                Kind::Key => hits.len() == 1,
                Kind::Pruned => hits.is_empty(),
                _ => true,
            }
        }
        Op::Write { id, price, reject } => {
            let store = &mut s.store;
            let result = tr.span(Kind::Write.span(), |_| {
                store.update(*id, "price", Value::real(*price))
            });
            match result {
                Ok(()) => !reject,
                Err(StoreError::ObjectConstraintViolated { .. }) if *reject => {
                    tally.rejected += 1;
                    true
                }
                Err(_) => false,
            }
        }
    }
}

/// Re-runs 20 reads of each kind against the final store and compares
/// every answer with `Query::scan`. In a traced run it also times
/// planning alone (`Optimizer::new` + `explain`) per query.
fn verify(s: &Served, seed: u64, tr: &mut Tracer) -> bool {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c4e);
    let mut ok = true;
    for &(kind, _) in &REQUEST {
        for i in 0..20 {
            let class = i % s.classes.len();
            let Op::Read { pred, .. } = make_op(kind, class, &mut rng, &s.classes) else {
                continue;
            };
            let c = &s.classes[class];
            let Ok(mut scanned) = Query::new(c.class.clone(), pred.clone()).scan(&s.store) else {
                return false;
            };
            scanned.sort_unstable();
            let Ok((mut hits, how)) = c.opt.execute(&s.store, &pred) else {
                return false;
            };
            hits.sort_unstable();
            ok &= hits == scanned;
            ok &= how != OptimizeOutcome::PrunedEmpty || scanned.is_empty();
            tr.span("storage.optimize.plan_us", |_| {
                let opt = Optimizer::new(&s.store, c.class.clone(), c.opt.constraints().to_vec());
                std::hint::black_box(opt.explain(&s.store, &pred));
            });
        }
    }
    ok
}

pub fn run(opts: RunOpts, mut tr: Tracer) -> Result<Report, String> {
    let mut report = Report::new("serve_read");
    let (mut s, setup) = timed_setup(opts.scale, |_| setup(opts))?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut tally = Tally::default();
    let mut probe = Probe::new();

    let warmup = Phase::begin(opts.seconds * WARMUP_SHARE);
    while !warmup.over(Instant::now()) {
        for op in request(&mut rng, &s.classes) {
            apply(&op, &mut s, &mut tally, &mut tr);
        }
        probe.tick(0.0);
    }
    tr.take_spans();
    tally = Tally::default();
    probe.reset();

    let (mut all, mut reads, mut writes) =
        (Series::default(), Series::default(), Series::default());
    let mut op_us = Vec::with_capacity(REQUEST.iter().map(|r| r.1).sum());
    let phase = Phase::begin(opts.seconds);
    loop {
        let ops = request(&mut rng, &s.classes);
        tr.next_request();
        op_us.clear();
        let start = Instant::now();
        let mut ok = true;
        for op in &ops {
            let t = Instant::now();
            ok &= apply(op, &mut s, &mut tally, &mut tr);
            op_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let end = Instant::now();
        if phase.over(end) {
            break;
        }
        report.attempted += 1;
        if !ok {
            report.failed += 1;
            continue;
        }
        let at = phase.at(end);
        all.push(at, (end - start).as_secs_f64() * 1e3);
        for (op, &us) in ops.iter().zip(&op_us) {
            match op {
                Op::Read { .. } => reads.push(at, us),
                Op::Write { .. } => writes.push(at, us),
            }
        }
        probe.tick(at);
    }

    report.check(
        "sampled answers equal Query::scan",
        verify(&s, opts.seed, &mut tr),
    );
    report.check(
        "violating writes occurred and were rejected",
        tally.rejected > 0,
    );

    let q = |series: &Series, q| series.window_quantiles(opts.seconds, q);
    let samples = &probe.samples;
    report.end_to_end =
        metrics::headline(setup, &all, samples, opts.seconds, metrics::peak_rss_mb()?);
    report.detail = metrics::detail(setup, &all, samples, opts.seconds);
    report.detail.extend([
        Metric::windowed("read_p50_us", "us", Better::Lower, q(&reads, 0.5)),
        Metric::windowed("read_p99_us", "us", Better::Lower, q(&reads, 0.99)),
        Metric::windowed("write_p50_us", "us", Better::Lower, q(&writes, 0.5)),
        Metric::windowed("write_p99_us", "us", Better::Lower, q(&writes, 0.99)),
    ]);
    if tr.is_on() {
        report.spans = tr.take_spans();
        report.note_trace_overhead(opts.seconds, 1.0);
        let reads = tally.reads.max(1) as f64;
        let cache = s.store.secondary_cache_stats().1;
        for (name, value) in [
            ("core.derived_count", s.derived as f64),
            ("merge.global_objects", s.store.db().len() as f64),
            ("storage.optimize.rows_per_read", tally.rows as f64 / reads),
            ("storage.optimize.pruned_frac", tally.pruned as f64 / reads),
            ("storage.optimize.scan_frac", tally.scanned as f64 / reads),
            ("storage.store.rejected_writes", tally.rejected as f64),
            ("storage.store.cached_structures", cache as f64),
            (
                "storage.store.composites_admitted",
                s.store.admitted_composites().len() as f64,
            ),
        ] {
            report.layers.insert(name, value);
        }
    }
    Ok(report)
}
