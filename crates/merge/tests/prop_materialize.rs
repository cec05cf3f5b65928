//! Property test for `IntegratedView::materialize` against the
//! per-object placement and insert loop it replaced: for every global
//! object, probe every extension and keep the smallest class containing
//! it (ties broken by name), then insert the objects one at a time.
//! Views are random: extensions of tied sizes, extensions listing ids
//! the view does not hold, objects in no extension, references to
//! placed, unplaced and missing objects, and attribute kinds that
//! disagree within a class (which the materialised schema may refuse).
//! The materialised database, or the error, must be `Debug`-identical.

use std::collections::{BTreeMap, BTreeSet};

use interop_merge::{GlobalObject, Hierarchy, IntegratedView, MergeError};
use interop_model::{AttrMap, AttrName, ClassDef, ClassName, Database, Object, ObjectId, Schema};
use interop_model::{Type, Value};
use proptest::prelude::*;

/// The materialisation as it was before placement became one pass over
/// the extensions and the database a whole build.
fn materialize_by_insert(
    view: &IntegratedView,
    db_name: &str,
    space: u32,
) -> Result<Database, MergeError> {
    let mut class_attrs: BTreeMap<ClassName, BTreeMap<AttrName, Type>> = BTreeMap::new();
    let mut placement: BTreeMap<ObjectId, ClassName> = BTreeMap::new();
    for g in view.objects.values() {
        let mut best: Option<(usize, ClassName)> = None;
        for (class, ext) in &view.hierarchy.extensions {
            if ext.contains(&g.id) {
                let cand = (ext.len(), class.clone());
                best = Some(match best {
                    None => cand,
                    Some(b) if cand < b => cand,
                    Some(b) => b,
                });
            }
        }
        let class = best
            .map(|(_, c)| c)
            .unwrap_or_else(|| ClassName::new("GlobalObject"));
        placement.insert(g.id, class.clone());
        let attrs = class_attrs.entry(class).or_default();
        for (a, v) in &g.attrs {
            if let Some(t) = infer_value_type(v) {
                match attrs.entry(a.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(t);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let joined = e.get().join(&t).unwrap_or(Type::Str);
                        *e.get_mut() = joined;
                    }
                }
            }
        }
    }
    let mut defs: Vec<ClassDef> = Vec::new();
    let mut ref_types: BTreeMap<(ClassName, AttrName), ClassName> = BTreeMap::new();
    for g in view.objects.values() {
        let class = placement[&g.id].clone();
        for (a, v) in &g.attrs {
            if let Value::Ref(target) = v {
                if let Some(tc) = placement.get(target) {
                    ref_types
                        .entry((class.clone(), a.clone()))
                        .and_modify(|prev| {
                            if prev != tc {
                                *prev = ClassName::new("GlobalObject");
                            }
                        })
                        .or_insert_with(|| tc.clone());
                }
            }
        }
    }
    for (class, attr) in ref_types.keys() {
        class_attrs
            .entry(class.clone())
            .or_default()
            .entry(attr.clone())
            .or_insert(Type::Str);
    }
    let needs_root = ref_types.values().any(|c| c.as_str() == "GlobalObject")
        || placement.values().any(|c| c.as_str() == "GlobalObject");
    if needs_root {
        defs.push(ClassDef::new("GlobalObject"));
    }
    for (class, attrs) in &class_attrs {
        let mut def = ClassDef::new(class.clone()).virt();
        for (a, t) in attrs {
            let ty = ref_types
                .get(&(class.clone(), a.clone()))
                .map(|c| Type::Ref(c.clone()))
                .unwrap_or_else(|| t.clone());
            def = def.attr(a.clone(), ty);
        }
        defs.push(def);
    }
    let schema = Schema::new(db_name, defs).map_err(|e| MergeError::Model(e.to_string()))?;
    let mut out = Database::new(schema, space);
    for g in view.objects.values() {
        let class = &placement[&g.id];
        let known = &class_attrs[class];
        let mut obj = Object::new(g.id, class.clone());
        for (a, v) in &g.attrs {
            if known.contains_key(a) || ref_types.contains_key(&(class.clone(), a.clone())) {
                obj.set(a.clone(), v.clone());
            }
        }
        out.insert(obj)
            .map_err(|e| MergeError::Model(e.to_string()))?;
    }
    Ok(out)
}

/// `materialize`'s value typing, for the scalar kinds generated here.
fn infer_value_type(v: &Value) -> Option<Type> {
    match v {
        Value::Int(_) => Some(Type::Int),
        Value::Str(_) => Some(Type::Str),
        Value::Real(_) => Some(Type::Real),
        Value::Bool(_) => Some(Type::Bool),
        _ => None,
    }
}

const CLASSES: [&str; 6] = ["Alpha", "Beta", "Gamma", "Delta", "GlobalObject", "Omega"];

/// A random view over `n` objects with even serials below `2n`. Each
/// class draws an extension from the serials below `2n + 2`, odd ones
/// included; a draw divisible by 4 copies the previous class's
/// extension size, so ties in size are common, and about one class in
/// five has no extension.
fn view(n: usize, draws: &[(u8, u8, u8)]) -> IntegratedView {
    let id = |serial: u64| ObjectId::new(7, serial);
    let mut objects = BTreeMap::new();
    for (i, &(a, b, c)) in draws.iter().take(n).enumerate() {
        let gid = id(2 * i as u64);
        let mut attrs = AttrMap::default();
        match a % 4 {
            0 => {}
            1 => {
                attrs.insert(AttrName::new("n"), Value::int(i64::from(b)));
            }
            2 => {
                attrs.insert(AttrName::new("n"), Value::real(f64::from(b) / 2.0));
            }
            _ => {
                // Now and then a kind the class cannot hold with ints.
                let v = if b % 16 == 0 {
                    Value::str("x")
                } else {
                    Value::int(1)
                };
                attrs.insert(AttrName::new("n"), v);
            }
        }
        if c % 3 != 0 {
            // References to present, absent and odd (never present) ids.
            attrs.insert(
                AttrName::new("r"),
                Value::Ref(id(u64::from(c) % (2 * n as u64 + 3))),
            );
        }
        objects.insert(
            gid,
            GlobalObject {
                id: gid,
                attrs,
                local: None,
                remote: None,
                fused: BTreeMap::new(),
                classes: Vec::new(),
            },
        );
    }
    let mut hierarchy = Hierarchy::default();
    let mut prev_len = 0usize;
    for (k, class) in CLASSES.iter().enumerate() {
        let (a, b, _) = draws.get(n + k).copied().unwrap_or((1, 1, 1));
        let span = 2 * n as u64 + 2;
        let want = if a % 4 == 0 {
            prev_len
        } else {
            usize::from(b) % (n + 2)
        };
        let mut ext = BTreeSet::new();
        let mut s = u64::from(a) * 7 + u64::from(b);
        for _ in 0..3 * span {
            if ext.len() >= want {
                break;
            }
            ext.insert(id(s % span));
            s += u64::from(b | 1);
        }
        prev_len = ext.len();
        if a % 5 != 1 {
            hierarchy.extensions.insert(ClassName::new(*class), ext);
        }
    }
    IntegratedView {
        objects,
        id_map: BTreeMap::new(),
        hierarchy,
        notes: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn materialize_matches_per_object_placement(
        n in 0usize..40,
        draws in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 46..47),
    ) {
        let v = view(n, &draws);
        let got = v.materialize("Mat", 9);
        let want = materialize_by_insert(&v, "Mat", 9);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}

/// The sweep above reaches ties in extension size, ids an extension
/// lists that the view lacks, objects in no extension, and both
/// outcomes of materialisation.
#[test]
fn random_views_reach_every_case() {
    let mut state = 0x1234_5678_9abc_def1u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut ties, mut strangers, mut unplaced, mut ok, mut refused) = (0, 0, 0, 0, 0);
    for _ in 0..300 {
        let n = (next() % 40) as usize;
        let draws: Vec<(u8, u8, u8)> = (0..46)
            .map(|_| {
                let r = next();
                (r as u8, (r >> 8) as u8, (r >> 16) as u8)
            })
            .collect();
        let v = view(n, &draws);
        let got = v.materialize("Mat", 9);
        let want = materialize_by_insert(&v, "Mat", 9);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let sizes: Vec<usize> = v.hierarchy.extensions.values().map(BTreeSet::len).collect();
        ties +=
            usize::from((1..sizes.len()).any(|i| sizes[i] > 0 && sizes[..i].contains(&sizes[i])));
        let listed: BTreeSet<&ObjectId> = v.hierarchy.extensions.values().flatten().collect();
        strangers += usize::from(listed.iter().any(|id| !v.objects.contains_key(id)));
        unplaced += usize::from(v.objects.keys().any(|id| !listed.contains(id)));
        match got {
            Ok(_) => ok += 1,
            Err(_) => refused += 1,
        }
    }
    for (what, count) in [
        ("ties", ties),
        ("strangers", strangers),
        ("unplaced", unplaced),
        ("ok", ok),
        ("refused", refused),
    ] {
        assert!(count > 0, "no view with {what}");
    }
}
