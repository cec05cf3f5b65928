//! The integrated view: the merging orchestrator plus evaluation of
//! formulas over global objects.

use std::collections::{BTreeMap, BTreeSet};

use interop_conform::Conformed;
use interop_constraint::eval::{eval_formula_with, Truth};
use interop_constraint::{Formula, Path};
use interop_model::{AttrName, ClassName, Database, FxHashMap, ObjectId, Value};

use crate::fuse::{FuseResult, GlobalObject};
use crate::hierarchy::{infer_hierarchy, Hierarchy};
use crate::resolve::MergeError;

/// Options controlling the merge.
#[derive(Clone, Debug, Default)]
pub struct MergeOptions {
    /// Designer-chosen names for virtual intersection classes, keyed by
    /// `(local class, remote class)` (e.g. `(RefereedPubl, Proceedings) →
    /// RefereedProceedings`). Unnamed intersections get a generated name.
    pub intersection_names: BTreeMap<(ClassName, ClassName), ClassName>,
}

/// The integrated (global) view of the two conformed databases.
#[derive(Clone, Debug)]
pub struct IntegratedView {
    /// Global objects by id.
    pub objects: BTreeMap<ObjectId, GlobalObject>,
    /// Conformed id → global id.
    pub id_map: BTreeMap<ObjectId, ObjectId>,
    /// The inferred class hierarchy and extensions.
    pub hierarchy: Hierarchy,
    /// Merge anomalies.
    pub notes: Vec<String>,
}

/// Runs the merging phase on a conformed pair (§2.3): entity resolution,
/// value fusion, hierarchy inference. The phases share one hash-indexed
/// view of the conformed objects instead of each re-indexing the pair.
pub fn merge(conf: &Conformed, opts: &MergeOptions) -> Result<IntegratedView, MergeError> {
    let idx = crate::index::ConformedIndex::new(conf);
    let (eqs, sims) = crate::resolve::resolve_with(conf, &idx)?;
    let fused: FuseResult = crate::fuse::fuse_with(conf, &idx, &eqs, &sims)?;
    let hierarchy = infer_hierarchy(conf, &fused, &sims, opts);
    Ok(IntegratedView {
        objects: fused.objects,
        id_map: fused.id_map,
        hierarchy,
        notes: fused.notes,
    })
}

impl IntegratedView {
    /// The global objects in a class's extension.
    pub fn extension(&self, class: &ClassName) -> Vec<&GlobalObject> {
        self.hierarchy
            .extension(class)
            .iter()
            .filter_map(|id| self.objects.get(id))
            .collect()
    }

    /// Navigates a path on a global object (references resolve to other
    /// global objects). The empty path yields the object's own reference,
    /// as [`interop_constraint::eval::eval_path`] does on a component
    /// object.
    pub fn get_path(&self, obj: &GlobalObject, path: &Path) -> Value {
        let Some((last, init)) = path.0.split_last() else {
            return Value::Ref(obj.id);
        };
        let mut cur: &GlobalObject = obj;
        for attr in init {
            match cur.attrs.get(attr) {
                Some(Value::Ref(id)) => match self.objects.get(id) {
                    Some(next) => cur = next,
                    None => return Value::Null,
                },
                _ => return Value::Null,
            }
        }
        cur.attrs.get(last).cloned().unwrap_or(Value::Null)
    }

    /// Evaluates a (conformed) formula on a global object with the
    /// component-database evaluator's rules
    /// ([`interop_constraint::eval::eval_formula_with`]): three-valued
    /// with `Null`. Paths navigate by [`IntegratedView::get_path`].
    pub fn eval(&self, obj: &GlobalObject, f: &Formula) -> Truth {
        let Ok(t) = eval_formula_with(f, &mut |p| {
            Ok::<_, std::convert::Infallible>(self.get_path(obj, p))
        });
        t
    }

    /// The global object an original (conformed) object was merged into.
    pub fn global_of(&self, conformed: ObjectId) -> Option<&GlobalObject> {
        self.id_map
            .get(&conformed)
            .and_then(|gid| self.objects.get(gid))
    }

    /// A read accessor for one attribute of a global object.
    pub fn attr(&self, obj: &GlobalObject, name: &str) -> Value {
        obj.attrs
            .get(&AttrName::new(name))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Materialises the integrated view as a plain [`interop_model::Database`]
    /// so it can be stored, queried through `interop-storage`, or serve as
    /// the *local* side of a further integration (chaining — the paper's
    /// `DBint` drawn as a database in Figure 2).
    ///
    /// The global class graph is a DAG (virtual subclasses have two
    /// parents), which the single-inheritance model cannot host; the
    /// materialised schema is therefore *flat*: one root class per global
    /// class, each carrying every attribute observed on its members
    /// (typed by the joined value kinds). Each global object is placed in
    /// one extent — the smallest class containing it (ties broken by
    /// name), or `GlobalObject` when no class does — while full
    /// memberships remain available on the view. Placement is one pass
    /// over the extensions in (size, name) order, each object taking the
    /// first class that lists it, and the database is built whole
    /// ([`Database::from_objects`]).
    pub fn materialize(&self, db_name: &str, space: u32) -> Result<Database, MergeError> {
        use interop_model::{ClassDef, Schema, Type};
        let root = ClassName::new("GlobalObject");
        // Smallest containing class per object.
        let mut placement: FxHashMap<ObjectId, Option<&ClassName>> =
            self.objects.keys().map(|&id| (id, None)).collect();
        let mut by_size: Vec<(&ClassName, &BTreeSet<ObjectId>)> =
            self.hierarchy.extensions.iter().collect();
        by_size.sort_by_key(|&(class, ext)| (ext.len(), class));
        for (class, ext) in by_size {
            for id in ext {
                if let Some(slot @ None) = placement.get_mut(id) {
                    *slot = Some(class);
                }
            }
        }
        let place = |id: &ObjectId| placement.get(id).map(|class| class.unwrap_or(&root));
        let placed: Vec<(&GlobalObject, &ClassName)> = self
            .objects
            .values()
            .map(|g| (g, place(&g.id).unwrap_or(&root)))
            .collect();
        // Infer attribute types per class from member values.
        let mut class_attrs: BTreeMap<&ClassName, BTreeMap<&AttrName, Type>> = BTreeMap::new();
        for &(g, class) in &placed {
            let attrs = class_attrs.entry(class).or_default();
            for (a, v) in &g.attrs {
                if let Some(t) = infer_value_type(v) {
                    match attrs.entry(a) {
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
        // References: type them as Ref(target's placement class); all
        // target classes must agree, else fall back to a shared root.
        let mut defs: Vec<ClassDef> = Vec::new();
        let mut ref_types: BTreeMap<(&ClassName, &AttrName), &ClassName> = BTreeMap::new();
        for &(g, class) in &placed {
            for (a, v) in &g.attrs {
                if let Value::Ref(target) = v {
                    if let Some(tc) = place(target) {
                        ref_types
                            .entry((class, a))
                            .and_modify(|prev| {
                                if *prev != tc {
                                    *prev = &root;
                                }
                            })
                            .or_insert(tc);
                    }
                }
            }
        }
        // Reference attributes carry no inferable scalar type; make sure
        // they still appear in their class's attribute list.
        for &(class, attr) in ref_types.keys() {
            class_attrs
                .entry(class)
                .or_default()
                .entry(attr)
                .or_insert(Type::Str); // placeholder; overridden by Ref below
        }
        let needs_root =
            ref_types.values().any(|c| **c == root) || placed.iter().any(|(_, c)| **c == root);
        if needs_root {
            defs.push(ClassDef::new("GlobalObject"));
        }
        for (&class, attrs) in &class_attrs {
            let mut def = ClassDef::new(class.clone()).virt();
            for (&a, t) in attrs {
                let ty = ref_types
                    .get(&(class, a))
                    .map(|&c| Type::Ref(c.clone()))
                    .unwrap_or_else(|| t.clone());
                def = def.attr(a.clone(), ty);
            }
            defs.push(def);
        }
        let schema = Schema::new(db_name, defs).map_err(|e| MergeError::Model(e.to_string()))?;
        let objects = placed.iter().map(|&(g, class)| {
            // Drop attributes whose type could not be inferred class-wide
            // (reference attributes were all added above).
            let known = &class_attrs[class];
            let mut obj = interop_model::Object::new(g.id, class.clone());
            for (a, v) in &g.attrs {
                if known.contains_key(a) {
                    obj.set(a.clone(), v.clone());
                }
            }
            obj
        });
        Database::from_objects(schema, space, objects).map_err(|e| MergeError::Model(e.to_string()))
    }
}

/// The materialisable type of a value, if any.
///
/// Sets carry the *join* of their members' element types (`{1, 2}` is a
/// `P(int)`, not a `Pstring`), falling back to string elements when the
/// members disagree or carry no scalar type (refs); the empty set also
/// materialises as `Pstring`. `Null` and references yield no scalar type —
/// references are patched to `Ref(class)` attributes by the caller.
fn infer_value_type(v: &Value) -> Option<interop_model::Type> {
    use interop_model::Type;
    match v {
        Value::Null => None,
        Value::Bool(_) => Some(Type::Bool),
        Value::Int(_) => Some(Type::Int),
        Value::Real(_) => Some(Type::Real),
        Value::Str(_) => Some(Type::Str),
        Value::Set(items) => {
            let mut elem: Option<Type> = None;
            for t in items.iter().filter_map(infer_value_type) {
                elem = Some(match elem {
                    None => t,
                    Some(prev) => prev.join(&t).unwrap_or(Type::Str),
                });
            }
            Some(Type::SetOf(Box::new(elem.unwrap_or(Type::Str))))
        }
        Value::Ref(_) => None, // patched by the caller once classes exist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interop_constraint::{Catalog, CmpOp};
    use interop_model::{ClassDef, Database, Schema, Type};
    use interop_spec::{ComparisonRule, Conversion, Decision, InterCond, PropEq, Side, Spec};

    fn view() -> IntegratedView {
        let local_schema = Schema::new(
            "L",
            vec![
                ClassDef::new("Publication")
                    .attr("isbn", Type::Str)
                    .attr("publisher", Type::Str)
                    .attr("ourprice", Type::Real),
                ClassDef::new("ScientificPubl")
                    .isa("Publication")
                    .attr("rating", Type::Range(1, 5)),
            ],
        )
        .unwrap();
        let remote_schema = Schema::new(
            "R",
            vec![
                ClassDef::new("Publisher").attr("name", Type::Str),
                ClassDef::new("Item")
                    .attr("isbn", Type::Str)
                    .attr("publisher", Type::Ref(ClassName::new("Publisher")))
                    .attr("libprice", Type::Real),
                ClassDef::new("Proceedings")
                    .isa("Item")
                    .attr("rating", Type::Range(1, 10)),
            ],
        )
        .unwrap();
        let mut ldb = Database::new(local_schema, 1);
        ldb.create(
            "ScientificPubl",
            vec![
                ("isbn", "X".into()),
                ("publisher", "ACM".into()),
                ("ourprice", 26.0.into()),
                ("rating", 2i64.into()),
            ],
        )
        .unwrap();
        let mut rdb = Database::new(remote_schema, 2);
        let p = rdb
            .create("Publisher", vec![("name", "ACM".into())])
            .unwrap();
        rdb.create(
            "Proceedings",
            vec![
                ("isbn", "X".into()),
                ("publisher", Value::Ref(p)),
                ("libprice", 22.0.into()),
                ("rating", 8i64.into()),
            ],
        )
        .unwrap();
        let mut spec = Spec::new("L", "R");
        spec.add_rule(ComparisonRule::equality(
            "r1",
            "Publication",
            "Item",
            vec![InterCond::eq("isbn", "isbn")],
        ));
        spec.add_rule(ComparisonRule::descriptivity(
            "r2",
            "Publication",
            vec!["publisher"],
            "Publisher",
            vec![InterCond::eq("publisher", "name")],
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "Publication",
            "ourprice",
            "Item",
            "libprice",
            Conversion::Id,
            Conversion::Id,
            Decision::Trust(Side::Local),
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "ScientificPubl",
            "rating",
            "Proceedings",
            "rating",
            Conversion::Multiply(2.0),
            Conversion::Id,
            Decision::Avg,
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "Publication",
            "publisher",
            "Publisher",
            "name",
            Conversion::Id,
            Conversion::Id,
            Decision::Any,
        ));
        let conf =
            interop_conform::conform(&ldb, &Catalog::new(), &rdb, &Catalog::new(), &spec).unwrap();
        merge(&conf, &MergeOptions::default()).unwrap()
    }

    #[test]
    fn merged_object_has_fused_rating() {
        let v = view();
        // Local rating 2 conformed to 4; remote 8; avg = 6.
        let merged = v
            .objects
            .values()
            .find(|g| {
                g.local.is_some()
                    && g.remote.is_some()
                    && g.attrs.contains_key(&AttrName::new("rating"))
            })
            .expect("merged publication");
        assert_eq!(v.attr(merged, "rating"), Value::int(6));
        assert_eq!(v.attr(merged, "libprice"), Value::real(26.0));
    }

    #[test]
    fn virtual_publisher_merges_with_remote_publisher() {
        let v = view();
        // One global publisher object carrying name=ACM, merged from the
        // virtual local and the real remote one.
        let publishers = v.extension(&ClassName::new("Publisher"));
        let virt = v.extension(&ClassName::new("VirtPublisher"));
        assert_eq!(publishers.len(), 1);
        assert_eq!(virt.len(), 1);
        assert_eq!(publishers[0].id, virt[0].id);
        assert!(publishers[0].local.is_some() && publishers[0].remote.is_some());
    }

    #[test]
    fn path_navigation_through_global_refs() {
        let v = view();
        let merged = v
            .objects
            .values()
            .find(|g| g.attrs.contains_key(&AttrName::new("rating")))
            .unwrap();
        let name = v.get_path(merged, &Path::parse("publisher.name"));
        assert_eq!(name, Value::str("ACM"));
        // Formula evaluation over the global object.
        let f = Formula::cmp("publisher.name", CmpOp::Eq, "ACM").implies(Formula::cmp(
            "rating",
            CmpOp::Ge,
            5i64,
        ));
        assert_eq!(v.eval(merged, &f), Truth::True);
    }

    #[test]
    fn eval_three_valued_on_missing_attrs() {
        let v = view();
        let merged = v
            .objects
            .values()
            .find(|g| g.attrs.contains_key(&AttrName::new("rating")))
            .unwrap();
        assert_eq!(
            v.eval(merged, &Formula::cmp("nonexistent", CmpOp::Eq, 1i64)),
            Truth::Unknown
        );
    }

    #[test]
    fn self_path_is_the_objects_own_reference() {
        use interop_constraint::eval::eval_formula;
        use interop_constraint::Expr;
        // `self = r` on an object whose `r` references itself.
        let this_is_r = Formula::Cmp(Expr::Attr(Path::this()), CmpOp::Eq, Expr::attr("r"));
        let schema = Schema::new(
            "S",
            vec![ClassDef::new("Node").attr("r", Type::Ref(ClassName::new("Node")))],
        )
        .unwrap();
        let mut db = Database::new(schema, 1);
        let id = db.create("Node", vec![]).unwrap();
        db.update(id, "r", Value::Ref(id)).unwrap();
        let component = db.object(id).unwrap();
        assert_eq!(
            eval_formula(&db, component, &this_is_r).unwrap(),
            Truth::True
        );

        let mut v = view();
        let mut global = v.objects.values().next().unwrap().clone();
        global.id = ObjectId::new(99, 1);
        global
            .attrs
            .insert(AttrName::new("r"), Value::Ref(global.id));
        v.objects.insert(global.id, global.clone());
        assert_eq!(v.get_path(&global, &Path::this()), Value::Ref(global.id));
        assert_eq!(v.eval(&global, &this_is_r), Truth::True);
    }

    #[test]
    fn materialize_types_sets_by_element_kind() {
        // Regression: `materialize` used to type every set as `Pstring`,
        // so a set of ints could not round-trip through storage. The
        // element type must be inferred from the members.
        use interop_model::Type;
        let local_schema = Schema::new(
            "L",
            vec![ClassDef::new("Doc")
                .attr("isbn", Type::Str)
                .attr("codes", Type::SetOf(Box::new(Type::Int)))
                .attr("tags", Type::pstring())],
        )
        .unwrap();
        let remote_schema =
            Schema::new("R", vec![ClassDef::new("Item").attr("isbn", Type::Str)]).unwrap();
        let mut ldb = Database::new(local_schema, 1);
        let codes = Value::Set([Value::int(3), Value::int(7)].into_iter().collect());
        ldb.create(
            "Doc",
            vec![
                ("isbn", "X".into()),
                ("codes", codes.clone()),
                ("tags", Value::str_set(["a", "b"])),
            ],
        )
        .unwrap();
        let mut rdb = Database::new(remote_schema, 2);
        rdb.create("Item", vec![("isbn", "X".into())]).unwrap();
        let mut spec = Spec::new("L", "R");
        spec.add_rule(ComparisonRule::equality(
            "r1",
            "Doc",
            "Item",
            vec![InterCond::eq("isbn", "isbn")],
        ));
        let conf =
            interop_conform::conform(&ldb, &Catalog::new(), &rdb, &Catalog::new(), &spec).unwrap();
        let v = merge(&conf, &MergeOptions::default()).unwrap();
        let db = v.materialize("Mat", 7).unwrap();
        // The materialised schema types the set attrs by element kind.
        let g = v.objects.values().next().unwrap();
        let class = &db.object(g.id).unwrap().class;
        let (_, codes_def) = db
            .schema
            .resolve_attr(class, &AttrName::new("codes"))
            .unwrap();
        assert_eq!(codes_def.ty, Type::SetOf(Box::new(Type::Int)));
        let (_, tags_def) = db
            .schema
            .resolve_attr(class, &AttrName::new("tags"))
            .unwrap();
        assert_eq!(tags_def.ty, Type::pstring());
        // Round-trip through a constraint-enforcing store preserves the
        // set value (the old Pstring typing made this insert fail).
        let store = interop_storage::Store::new(db, Catalog::new());
        let stored = store.db().object(g.id).unwrap();
        assert_eq!(stored.get(&AttrName::new("codes")), &codes);
        let back = store.into_db();
        assert_eq!(
            back.object(g.id).unwrap().get(&AttrName::new("codes")),
            &codes
        );
    }

    #[test]
    fn global_of_resolves_both_sides() {
        let v = view();
        let gids: std::collections::BTreeSet<ObjectId> = v.objects.keys().copied().collect();
        for (orig, gid) in &v.id_map {
            assert!(gids.contains(gid), "{orig} maps to missing global {gid}");
        }
    }
}
