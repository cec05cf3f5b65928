//! Inputs built from the seed, and glue shared by the workloads.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::path::PathBuf;

use interop_bench::{synthetic_fixture, SyntheticConfig};
use interop_constraint::{Catalog, ClassConstraint, ConstraintId, ObjectConstraint};
use interop_core::fixtures::Fixture;
use interop_core::{IntegrationOutcome, Scope};
use interop_lang::{parse_database, parse_spec, print_database, ParsedDatabase};
use interop_model::{ClassName, Database};
use rand::rngs::StdRng;
use rand::Rng as _;

/// A uniformly chosen element of `items` (non-empty).
pub fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// The synthetic pair as text, the way a user hands it to the system:
/// both TM schema+catalog sources and the integration spec.
#[derive(Clone, Debug)]
pub struct Texts {
    pub local_tm: String,
    pub remote_tm: String,
    pub spec: String,
}

/// The TM source of `interop_bench::synthetic_fixture`'s specification
/// (`interop_lang` has no spec printer). [`synthetic_source`] checks
/// that it parses back to the fixture's spec.
const SYNTHETIC_SPEC: &str = "\
integration SynLocal with SynRemote

rule r_eq: Eq(o : LProd, r : RProd) <- o.key = r.key

propeq(LProd.score, RProd.score, multiply(2), id, avg)
propeq(LProd.price, RProd.price, id, id, trust(SynLocal))
propeq(LProd.grade, RProd.grade, id, id, any)
";

/// A generated synthetic pair plus its text form.
pub struct Source {
    pub fixture: Fixture,
    pub texts: Texts,
}

fn tm_text(db: &Database, catalog: &Catalog) -> String {
    print_database(&ParsedDatabase {
        schema: (*db.schema).clone(),
        catalog: catalog.clone(),
        consts: BTreeMap::new(),
    })
}

/// Generates the synthetic pair and prints it, checking that the texts
/// parse back to the generated schemas, catalogs and spec.
pub fn synthetic_source(cfg: SyntheticConfig) -> Result<Source, String> {
    let fixture = synthetic_fixture(cfg);
    let texts = Texts {
        local_tm: tm_text(&fixture.local_db, &fixture.local_catalog),
        remote_tm: tm_text(&fixture.remote_db, &fixture.remote_catalog),
        spec: SYNTHETIC_SPEC.to_owned(),
    };
    let l = parse_database(&texts.local_tm).map_err(|e| format!("local text: {e}"))?;
    let r = parse_database(&texts.remote_tm).map_err(|e| format!("remote text: {e}"))?;
    let spec = parse_spec(&texts.spec, &l.schema, &r.schema).map_err(|e| format!("spec: {e}"))?;
    let same = l.schema == *fixture.local_db.schema
        && r.schema == *fixture.remote_db.schema
        && digest(&l.catalog) == digest(&fixture.local_catalog)
        && digest(&r.catalog) == digest(&fixture.remote_catalog)
        && digest(&(
            &spec.rules,
            &spec.propeqs,
            spec.object_view,
            &spec.status_overrides,
        )) == digest(&(
            &fixture.spec.rules,
            &fixture.spec.propeqs,
            fixture.spec.object_view,
            &fixture.spec.status_overrides,
        ));
    if !same {
        return Err("printed synthetic texts do not parse back to the fixture".into());
    }
    Ok(Source { fixture, texts })
}

/// Id space of materialised integrated views (the sources use 1 and 2).
pub const GLOBAL_SPACE: u32 = 9;

/// The catalog a store over the materialised view enforces: a key on
/// `key` for every class, and each derived object constraint on every
/// materialised class whose members all lie in the constraint's scope.
pub fn view_catalog(outcome: &IntegrationOutcome, db: &Database) -> Catalog {
    let view = &outcome.view;
    let mut cat = Catalog::new();
    for class in db.schema.class_names() {
        let members = db.extent(class);
        if members.is_empty() {
            continue;
        }
        let objects: Vec<_> = members
            .iter()
            .filter_map(|id| view.objects.get(id))
            .collect();
        // The global classes whose extension holds every member.
        let containing: BTreeSet<&ClassName> = view
            .hierarchy
            .extensions
            .iter()
            .filter(|(_, ext)| objects.iter().all(|g| ext.contains(&g.id)))
            .map(|(c, _)| c)
            .collect();
        let in_all = |c: &ClassName| containing.contains(c);
        let merged = objects
            .iter()
            .all(|g| g.local.is_some() && g.remote.is_some());
        let local_only = objects.iter().all(|g| g.remote.is_none());
        let remote_only = objects.iter().all(|g| g.local.is_none());
        let db_name = db.name().clone();
        cat.add_class(ClassConstraint::key(
            ConstraintId::new(&db_name, class, "key"),
            class.clone(),
            vec!["key"],
        ));
        for d in &outcome.global.object {
            let covered = match &d.scope {
                Scope::All(c) => in_all(c),
                Scope::Merged(a, b) => merged && in_all(a) && in_all(b),
                Scope::LocalOnly(c) => local_only && in_all(c),
                Scope::RemoteOnly(c) => remote_only && in_all(c),
            };
            if covered {
                cat.add_object(ObjectConstraint::new(
                    d.id.clone(),
                    class.clone(),
                    d.formula.clone(),
                ));
            }
        }
    }
    cat
}

/// A digest of a value's `Debug` rendering, computed without building
/// the (for a whole integration outcome, very large) string.
pub fn digest<T: fmt::Debug + ?Sized>(value: &T) -> u64 {
    struct H(std::collections::hash_map::DefaultHasher);
    impl fmt::Write for H {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = H(Default::default());
    let _ = write!(h, "{value:?}");
    h.0.finish()
}

/// A fresh directory for durable state, inside the working directory.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".e2e_scratch")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(dir)
}

/// Removes a scratch directory and, when it was the last one, the
/// `.e2e_scratch` parent.
pub fn remove_scratch(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}
