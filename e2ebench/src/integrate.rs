//! `integrate_wide` and `integrate_deep`: back-to-back integrations of a
//! synthetic pair, each from text to a loaded store.
//!
//! One operation parses both TM sources and the spec, runs
//! `Integrator::run_checked`, materialises the view and loads it into a
//! `Store` enforcing the derived constraints. The traced run calls the
//! public phase functions in `Integrator::run`'s order instead, so each
//! phase gets its own span, and checks that this yields exactly what
//! `run_checked` does.

use std::sync::Arc;
use std::time::Instant;

use interop_analyze::{analyze, has_errors, AnalysisInput};
use interop_bench::SyntheticConfig;
use interop_conform::conform;
use interop_core::conflict::{detect_conflicts, ConflictKind};
use interop_core::derive::{derive_global_constraints, DeriveOptions};
use interop_core::fixtures;
use interop_core::implied::implied_constraints;
use interop_core::repair::suggest;
use interop_core::{
    classify_constraints, property_subjectivity, IntegrationOutcome, Integrator, IntegratorOptions,
};
use interop_lang::{parse_database, parse_spec};
use interop_merge::{merge, MergeOptions};
use interop_model::Database;
use interop_storage::Store;

use crate::inputs::{digest, synthetic_source, view_catalog, Texts, GLOBAL_SPACE};
use crate::metrics::{self, Phase, Series};
use crate::speed::Probe;
use crate::trace::Tracer;
use crate::{timed_setup, Report, RunOpts, Scale};

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Many objects, few constraints.
    Wide,
    /// Few objects, many constraints.
    Deep,
}

pub fn config(shape: Shape, scale: Scale, seed: u64) -> SyntheticConfig {
    let (n, k) = match (shape, scale) {
        (Shape::Wide, Scale::Full) => (10_000, 4),
        (Shape::Deep, Scale::Full) => (1_000, 32),
        (Shape::Wide, Scale::Toy) => (200, 2),
        (Shape::Deep, Scale::Toy) => (50, 4),
    };
    SyntheticConfig {
        local_n: n,
        remote_n: n,
        match_ratio: 0.5,
        constraints_per_side: k,
        seed,
    }
}

/// A pair ready to integrate: its texts, and the object data the parsed
/// schemas are paired with.
pub struct Prepared {
    pub texts: Texts,
    pub local: Database,
    pub remote: Database,
    /// Global objects a correct integration yields.
    pub expect_global: usize,
    /// Of those, the ones merged from both sides.
    pub expect_merged: usize,
}

pub fn prepare(cfg: SyntheticConfig) -> Result<Prepared, String> {
    let src = synthetic_source(cfg)?;
    let merged = (cfg.remote_n as f64 * cfg.match_ratio) as usize;
    Ok(Prepared {
        texts: src.texts,
        local: src.fixture.local_db,
        remote: src.fixture.remote_db,
        expect_global: cfg.local_n + cfg.remote_n - merged,
        expect_merged: merged,
    })
}

/// An integration's products.
pub struct Integrated {
    pub outcome: IntegrationOutcome,
    pub store: Store,
}

/// The parsed inputs of one integration.
struct Parsed {
    local: Database,
    local_catalog: interop_constraint::Catalog,
    remote: Database,
    remote_catalog: interop_constraint::Catalog,
    spec: interop_spec::Spec,
}

fn parse(texts: &Texts, mut local: Database, mut remote: Database) -> Result<Parsed, String> {
    let l = parse_database(&texts.local_tm).map_err(|e| e.to_string())?;
    let r = parse_database(&texts.remote_tm).map_err(|e| e.to_string())?;
    let spec = parse_spec(&texts.spec, &l.schema, &r.schema).map_err(|e| e.to_string())?;
    local.schema = Arc::new(l.schema);
    remote.schema = Arc::new(r.schema);
    Ok(Parsed {
        local,
        local_catalog: l.catalog,
        remote,
        remote_catalog: r.catalog,
        spec,
    })
}

fn load(outcome: IntegrationOutcome, tr: &mut Tracer) -> Result<Integrated, String> {
    let db = tr.span("merge.materialize_ms", |_| {
        outcome.view.materialize("Global", GLOBAL_SPACE)
    });
    let db = db.map_err(|e| e.to_string())?;
    let catalog = tr.span("e2e.catalog_us", |_| view_catalog(&outcome, &db));
    let store = tr.span("storage.load_ms", |_| Store::new(db, catalog));
    Ok(Integrated { outcome, store })
}

/// One integration, from text to loaded store. `local` and `remote` are
/// the object data (cloned by the caller, outside any timing).
pub fn integrate(
    texts: &Texts,
    local: Database,
    remote: Database,
    tr: &mut Tracer,
) -> Result<Integrated, String> {
    if tr.is_on() {
        return integrate_phases(texts, local, remote, tr);
    }
    let p = parse(texts, local, remote)?;
    let outcome = Integrator::new(p.local, p.local_catalog, p.remote, p.remote_catalog, p.spec)
        .run_checked()
        .map_err(|e| e.to_string())?;
    load(outcome, tr)
}

/// `integrate` with one span per phase: the calls `run_checked` makes,
/// made here in its order.
fn integrate_phases(
    texts: &Texts,
    local: Database,
    remote: Database,
    tr: &mut Tracer,
) -> Result<Integrated, String> {
    tr.span("integrate.run", |tr| {
        let p = tr.span("lang.parse_us", |_| parse(texts, local, remote))?;
        let diags = tr.span("analyze.preflight_us", |_| {
            analyze(&AnalysisInput {
                local: &p.local.schema,
                local_catalog: &p.local_catalog,
                remote: &p.remote.schema,
                remote_catalog: &p.remote_catalog,
                spec: &p.spec,
            })
        });
        if has_errors(&diags) {
            return Err(format!("pre-flight refused the spec: {diags:?}"));
        }
        let conformed = tr
            .span("conform.conform_ms", |_| {
                conform(
                    &p.local,
                    &p.local_catalog,
                    &p.remote,
                    &p.remote_catalog,
                    &p.spec,
                )
            })
            .map_err(|e| e.to_string())?;
        let view = tr
            .span("merge.merge_ms", |_| {
                merge(&conformed, &MergeOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let subjectivity = tr.span("core.subjectivity_us", |_| {
            property_subjectivity(&conformed)
        });
        let (statuses, mut spec_issues) = tr.span("core.classify_us", |_| {
            classify_constraints(&conformed, &subjectivity)
        });
        let (implied, implied_issues) =
            tr.span("core.implied_us", |_| implied_constraints(&conformed));
        spec_issues.extend(implied_issues);
        let global = tr.span("core.derive_ms", |_| {
            derive_global_constraints(
                &conformed,
                &subjectivity,
                &statuses,
                DeriveOptions::default(),
            )
        });
        let conflicts = tr.span("core.conflict_ms", |_| {
            detect_conflicts(&conformed, &statuses, &global, &view)
        });
        let repairs = tr.span("core.repair_us", |_| {
            conflicts.iter().map(suggest).collect()
        });
        let outcome = IntegrationOutcome {
            conformed,
            view,
            subjectivity,
            statuses,
            spec_issues,
            implied,
            global,
            conflicts,
            repairs,
        };
        load(outcome, tr)
    })
}

/// The paper's Figure-1 fixture still integrates and reports the
/// admission conflict between rule r5 and `Bookseller.Proceedings.oc3`.
pub fn paper_conflict_reported() -> bool {
    let fx = fixtures::paper_fixture();
    let outcome = Integrator::new(
        fx.local_db,
        fx.local_catalog,
        fx.remote_db,
        fx.remote_catalog,
        fx.spec,
    )
    .with_options(IntegratorOptions {
        merge: fixtures::merge_options(),
        ..Default::default()
    })
    .run_checked();
    outcome.is_ok_and(|o| {
        o.conflicts.iter().any(|c| {
            matches!(&c.kind, ConflictKind::Admission { rule, violated, .. }
                if rule.as_str() == "r5" && violated.as_str() == "Bookseller.Proceedings.oc3")
        })
    })
}

/// Whether an integration of `p` came out as it must: no conflicts, and
/// exactly the expected global and merged object counts.
fn as_expected(p: &Prepared, i: &Integrated) -> bool {
    let view = &i.outcome.view;
    let merged = view
        .objects
        .values()
        .filter(|g| g.local.is_some() && g.remote.is_some())
        .count();
    i.outcome.conflicts.is_empty()
        && view.objects.len() == p.expect_global
        && merged == p.expect_merged
        && i.store.db().len() == p.expect_global
}

pub fn run(shape: Shape, opts: RunOpts, mut tr: Tracer) -> Result<Report, String> {
    let mut report = Report::new(match shape {
        Shape::Wide => "integrate_wide",
        Shape::Deep => "integrate_deep",
    });
    let cfg = config(shape, opts.scale, opts.seed);
    let (p, setup) = timed_setup(opts.scale, |_| prepare(cfg))?;

    // The first integration warms allocator and caches; it is not
    // measured. In a traced run it also checks that the phase-by-phase
    // path yields exactly `run_checked`'s outcome.
    let first = integrate(&p.texts, p.local.clone(), p.remote.clone(), &mut tr)?;
    if tr.is_on() {
        let mut plain = Tracer::new(false, tr.epoch());
        let reference = integrate(&p.texts, p.local.clone(), p.remote.clone(), &mut plain)?;
        report.check(
            "traced phases equal run_checked",
            digest(&first.outcome) == digest(&reference.outcome),
        );
    }
    report.check("first integration as expected", as_expected(&p, &first));
    let counts = [
        ("core.derived_count", first.outcome.global.object.len()),
        ("core.conflict_count", first.outcome.conflicts.len()),
        ("merge.global_objects", first.outcome.view.objects.len()),
    ];
    let checked = first.store.check_all().map_err(|e| e.to_string())?;
    report.check(
        "loaded view satisfies the derived constraints",
        checked.is_empty(),
    );
    drop(first);
    tr.take_spans();

    let mut ops = Series::default();
    // An unrecorded first probe touches the probe's buffer, as the
    // serving workloads' warm-ups do.
    let mut probe = Probe::new();
    probe.measure();
    let phase = Phase::begin(opts.seconds);
    loop {
        probe.tick(phase.at(Instant::now()));
        let (local, remote) = (p.local.clone(), p.remote.clone());
        tr.next_request();
        let start = Instant::now();
        let result = integrate(&p.texts, local, remote, &mut tr);
        let end = Instant::now();
        if phase.over(end) {
            break;
        }
        report.attempted += 1;
        match result {
            Ok(i) if as_expected(&p, &i) => {
                ops.push(phase.at(end), (end - start).as_secs_f64() * 1e3);
            }
            _ => report.failed += 1,
        }
    }

    report.check(
        "paper fixture reports the r5/oc3 admission conflict",
        paper_conflict_reported(),
    );
    let samples = &probe.samples;
    report.end_to_end =
        metrics::headline(setup, &ops, samples, opts.seconds, metrics::peak_rss_mb()?);
    report.detail = metrics::detail(setup, &ops, samples, opts.seconds);
    if tr.is_on() {
        report.spans = tr.take_spans();
        let top = crate::trace::summarize(&report.spans)
            .get("integrate.run")
            .map_or(0.0, |s| s.self_ns as f64 / s.busy_ns.max(1) as f64);
        report.layers.insert("integrate.unattributed_frac", top);
        for (name, n) in counts {
            report.layers.insert(name, n as f64);
        }
        report.note_trace_overhead(opts.seconds, 1.0);
    }
    Ok(report)
}
