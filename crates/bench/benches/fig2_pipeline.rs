//! Experiment F2 bench: the conformation + merging pipeline on the paper
//! fixture and on synthetic extents of growing size, the pre-flight
//! analysis and the conflict checks on the end-to-end benchmark's
//! synthetic pairs, and the whole-database builds after them: conform on
//! the wide pair, and the merged view materialised and loaded into a
//! store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use interop_bench::{synthetic_fixture, SyntheticConfig};
use interop_constraint::{Catalog, ClassConstraint, ConstraintId};
use interop_core::conflict::detect_conflicts;
use interop_core::derive::{derive_global_constraints, DeriveOptions};
use interop_core::fixtures;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_pipeline");
    g.sample_size(20);

    let fx = fixtures::paper_fixture();
    g.bench_function("paper_conform", |b| {
        b.iter(|| {
            interop_conform::conform(
                &fx.local_db,
                &fx.local_catalog,
                &fx.remote_db,
                &fx.remote_catalog,
                &fx.spec,
            )
            .expect("conforms")
        })
    });
    let conf = interop_conform::conform(
        &fx.local_db,
        &fx.local_catalog,
        &fx.remote_db,
        &fx.remote_catalog,
        &fx.spec,
    )
    .expect("conforms");
    let opts = fixtures::merge_options();
    g.bench_function("paper_merge", |b| {
        b.iter(|| interop_merge::merge(&conf, &opts).expect("merges"))
    });

    for n in [100usize, 1_000, 10_000] {
        let sfx = synthetic_fixture(SyntheticConfig {
            local_n: n,
            remote_n: n,
            match_ratio: 0.5,
            constraints_per_side: 4,
            seed: 42,
        });
        let sconf = interop_conform::conform(
            &sfx.local_db,
            &sfx.local_catalog,
            &sfx.remote_db,
            &sfx.remote_catalog,
            &sfx.spec,
        )
        .expect("conforms");
        g.bench_with_input(BenchmarkId::new("synthetic_merge", n), &n, |b, _| {
            b.iter(|| interop_merge::merge(&sconf, &Default::default()).expect("merges"))
        });

        // Single-object churn through the incremental pipeline: one
        // source update re-conforms one object and patches the merge
        // state in place — the contrast with `synthetic_merge` (a full
        // from-scratch re-merge per change) is the tentpole payoff.
        let mut ldb = sfx.local_db.clone();
        let mut pipe = interop_core::IncrementalPipeline::new(
            &ldb,
            &sfx.local_catalog,
            &sfx.remote_db,
            &sfx.remote_catalog,
            &sfx.spec,
            Default::default(),
        )
        .expect("pipeline builds");
        let id = ldb.objects().next().expect("non-empty fixture").id;
        let price = interop_model::AttrName::new("price");
        let mut toggle = false;
        g.bench_with_input(BenchmarkId::new("incremental_merge", n), &n, |b, _| {
            b.iter(|| {
                toggle = !toggle;
                let v = if toggle { 11.5 } else { 23.25 };
                let mut o = ldb.object(id).expect("object lives").clone();
                o.attrs.insert(price.clone(), interop_model::Value::real(v));
                ldb.remove(id).expect("removes");
                ldb.insert(o).expect("re-inserts");
                pipe.apply_local(&ldb, &[id]).expect("patches");
            })
        });
    }

    // The pre-flight analysis the end-to-end deep integration runs
    // first, over the deep pair's schemas, catalogs (33 object
    // constraints per side) and spec; it reads no objects.
    let deep = synthetic_fixture(SyntheticConfig {
        local_n: 1_000,
        remote_n: 1_000,
        match_ratio: 0.5,
        constraints_per_side: 32,
        seed: 42,
    });
    let input = interop_analyze::AnalysisInput {
        local: &deep.local_db.schema,
        local_catalog: &deep.local_catalog,
        remote: &deep.remote_db.schema,
        remote_catalog: &deep.remote_catalog,
        spec: &deep.spec,
    };
    g.bench_with_input(BenchmarkId::new("preflight", "deep"), &"deep", |b, _| {
        b.iter(|| interop_analyze::analyze(std::hint::black_box(&input)))
    });

    // §5.2.1's conflict checks alone, on the synthetic pairs the
    // end-to-end integrations run: `wide` is object-bound (10k objects
    // and 4 constraints per side), `deep` constraint-bound (1k objects and
    // 32 constraints per side). Conform, merge and derivation run once,
    // outside the timed loop.
    for (shape, n, k) in [("wide", 10_000usize, 4usize), ("deep", 1_000, 32)] {
        let sfx = synthetic_fixture(SyntheticConfig {
            local_n: n,
            remote_n: n,
            match_ratio: 0.5,
            constraints_per_side: k,
            seed: 42,
        });
        let sconf = interop_conform::conform(
            &sfx.local_db,
            &sfx.local_catalog,
            &sfx.remote_db,
            &sfx.remote_catalog,
            &sfx.spec,
        )
        .expect("conforms");
        let view = interop_merge::merge(&sconf, &Default::default()).expect("merges");
        let subj = interop_core::property_subjectivity(&sconf);
        let (statuses, _) = interop_core::classify_constraints(&sconf, &subj);
        let global = derive_global_constraints(&sconf, &subj, &statuses, DeriveOptions::default());
        g.bench_with_input(
            BenchmarkId::new("detect_conflicts", shape),
            &shape,
            |b, _| b.iter(|| detect_conflicts(&sconf, &statuses, &global, &view)),
        );
    }

    // The object-bound path after merge, as the end-to-end integrations
    // run it: conform the wide pair (10k objects per side), and
    // materialise the merged view and load it into a store keyed on
    // `key` per class, at 1k, 10k and 100k objects per side.
    let wide = synthetic_fixture(SyntheticConfig {
        local_n: 10_000,
        remote_n: 10_000,
        match_ratio: 0.5,
        constraints_per_side: 4,
        seed: 42,
    });
    g.bench_with_input(BenchmarkId::new("conform", 10_000), &10_000, |b, _| {
        b.iter(|| {
            interop_conform::conform(
                &wide.local_db,
                &wide.local_catalog,
                &wide.remote_db,
                &wide.remote_catalog,
                &wide.spec,
            )
            .expect("conforms")
        })
    });
    drop(wide);
    for n in [1_000usize, 10_000, 100_000] {
        let view = {
            let sfx = synthetic_fixture(SyntheticConfig {
                local_n: n,
                remote_n: n,
                match_ratio: 0.5,
                constraints_per_side: 4,
                seed: 42,
            });
            let sconf = interop_conform::conform(
                &sfx.local_db,
                &sfx.local_catalog,
                &sfx.remote_db,
                &sfx.remote_catalog,
                &sfx.spec,
            )
            .expect("conforms");
            interop_merge::merge(&sconf, &Default::default()).expect("merges")
        };
        let catalog = key_catalog(&view.materialize("Global", 9).expect("materialises"));
        g.bench_with_input(BenchmarkId::new("materialize_load", n), &n, |b, _| {
            b.iter(|| {
                let db = view.materialize("Global", 9).expect("materialises");
                interop_storage::Store::new(db, catalog.clone())
            })
        });
    }
    g.finish();

    let view = interop_merge::merge(&conf, &opts).expect("merges");
    println!(
        "\n[F2] global objects={} intersections={:?}",
        view.objects.len(),
        view.hierarchy
            .intersections
            .iter()
            .map(|i| i.name.to_string())
            .collect::<Vec<_>>()
    );
}

/// A key on `key` for every class of a materialised view that has it.
fn key_catalog(db: &interop_model::Database) -> Catalog {
    let key = interop_model::AttrName::new("key");
    let mut cat = Catalog::new();
    for class in db.schema.class_names() {
        if db.schema.resolve_attr(class, &key).is_some() {
            cat.add_class(ClassConstraint::key(
                ConstraintId::new(db.name(), class, "key"),
                class.clone(),
                vec!["key"],
            ));
        }
    }
    cat
}

criterion_group!(benches, bench);
criterion_main!(benches);
