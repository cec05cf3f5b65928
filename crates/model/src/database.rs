//! Databases: a schema plus populated class extents.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::ModelError;
use crate::ident::{AttrName, ClassName, DbName};
use crate::object::{Object, ObjectId};
use crate::pmap::PMap;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// The extent of a class: object ids in insertion order.
pub type Extent = Vec<ObjectId>;

/// A populated database: schema + objects + per-class extents.
///
/// Extents are *direct*: `extent(C)` holds only objects whose most-specific
/// class is `C`. Use [`Database::extension`] for the TM semantics where a
/// class's extension includes all subclass instances.
///
/// Cloning a `Database` is O(1) in its object count. The objects live in
/// a [`PMap`], a persistent B-tree whose clone shares every node, and
/// each object, each class extent and the schema sit behind `Arc`s. A
/// write to either copy then copies only what it touches: the
/// O(log n) tree nodes on the object's path and the object itself
/// (`Arc::make_mut`), plus, for an insert or a removal, the one extent
/// it changes, which keeps its insertion order. The two copies stay
/// independent values. The MVCC layer takes such a clone for every
/// transaction's overlay and every published snapshot, so this is a
/// write-path cost, not a convenience.
#[derive(Clone, Debug)]
pub struct Database {
    /// The schema this database instantiates (shared, copy-on-write).
    pub schema: Arc<Schema>,
    space: u32,
    next_serial: u64,
    objects: PMap<ObjectId, Arc<Object>>,
    extents: BTreeMap<ClassName, Arc<Extent>>,
}

impl Database {
    /// Creates an empty database over `schema`. `space` tags all object ids
    /// created by this database and must be unique among cooperating
    /// databases (the integration layer relies on it).
    pub fn new(schema: Schema, space: u32) -> Self {
        Database::with_schema(Arc::new(schema), space)
    }

    /// Builds a whole database from `objects` in one pass: what an
    /// empty [`Database::new`] followed by [`Database::insert`] of each
    /// object in turn yields, or that loop's first error. Each object is
    /// type-checked as `insert` does, a repeated id is refused, and the
    /// extents keep the input order; the object map is built bottom-up
    /// ([`PMap::from_sorted`]) after one sort by id, none when the ids
    /// already ascend. An object passed as an `Arc` is kept as that
    /// `Arc`, not copied.
    pub fn from_objects<O: Into<Arc<Object>>>(
        schema: impl Into<Arc<Schema>>,
        space: u32,
        objects: impl IntoIterator<Item = O>,
    ) -> Result<Database> {
        let mut db = Database::with_schema(schema.into(), space);
        let objects = objects.into_iter();
        // (id, input position, object); the position orders repeats.
        let mut entries: Vec<(ObjectId, usize, Arc<Object>)> =
            Vec::with_capacity(objects.size_hint().0);
        let mut ascending = true;
        let mut refused = None;
        for (pos, obj) in objects.enumerate() {
            let obj: Arc<Object> = obj.into();
            if let Err(e) = db.typecheck(&obj) {
                refused = Some(e);
                break;
            }
            ascending &= entries.last().is_none_or(|(last, ..)| *last < obj.id);
            Arc::make_mut(
                db.extents
                    .get_mut(&obj.class)
                    .expect("typechecked class has extent"),
            )
            .push(obj.id);
            db.next_serial = db.next_serial.max(obj.id.serial() + 1);
            entries.push((obj.id, pos, obj));
        }
        if !ascending {
            entries.sort_unstable_by_key(|&(id, pos, _)| (id, pos));
            // The insert loop stops at the earliest repeat in input
            // order, which comes before any refused object.
            let repeat = entries
                .windows(2)
                .filter(|w| w[0].0 == w[1].0)
                .map(|w| (w[1].1, w[1].0))
                .min();
            if let Some((_, id)) = repeat {
                return Err(ModelError::DuplicateObject(id));
            }
        }
        if let Some(e) = refused {
            return Err(e);
        }
        db.objects = PMap::from_sorted(entries.into_iter().map(|(id, _, obj)| (id, obj)))
            .expect("ids sorted and free of repeats above");
        Ok(db)
    }

    /// An empty database over a shared schema.
    fn with_schema(schema: Arc<Schema>, space: u32) -> Self {
        let extents = schema
            .class_names()
            .map(|c| (c.clone(), Arc::default()))
            .collect();
        Database {
            schema,
            space,
            next_serial: 0,
            objects: PMap::new(),
            extents,
        }
    }

    /// The database name (from the schema).
    pub fn name(&self) -> &DbName {
        &self.schema.db
    }

    /// The id-space tag of this database.
    pub fn space(&self) -> u32 {
        self.space
    }

    /// Allocates a fresh object id in this database's space.
    pub fn fresh_id(&mut self) -> ObjectId {
        let id = ObjectId::new(self.space, self.next_serial);
        self.next_serial += 1;
        id
    }

    /// Creates and inserts a new object of `class` with the given
    /// attributes, returning its id. Attributes are type-checked against
    /// the schema.
    pub fn create(
        &mut self,
        class: impl Into<ClassName>,
        attrs: Vec<(&str, Value)>,
    ) -> Result<ObjectId> {
        let class = class.into();
        let id = self.fresh_id();
        let mut obj = Object::new(id, class);
        for (name, v) in attrs {
            obj.set(name, v);
        }
        self.insert(obj)?;
        Ok(id)
    }

    /// Inserts a fully-formed object, type-checking it against the schema.
    pub fn insert(&mut self, obj: Object) -> Result<()> {
        self.typecheck(&obj)?;
        let (id, class) = (obj.id, obj.class.clone());
        if let Some(prev) = self.objects.insert(id, Arc::new(obj)) {
            // One walk on the common path; a duplicate puts the
            // original back and is refused.
            self.objects.insert(id, prev);
            return Err(ModelError::DuplicateObject(id));
        }
        Arc::make_mut(
            self.extents
                .get_mut(&class)
                .expect("validated class has extent"),
        )
        .push(id);
        self.next_serial = self.next_serial.max(id.serial() + 1);
        Ok(())
    }

    /// Validates an object against the schema without inserting it.
    pub fn typecheck(&self, obj: &Object) -> Result<()> {
        let class = &obj.class;
        self.schema.class_req(class)?;
        for (attr, value) in &obj.attrs {
            match self.schema.resolve_attr(class, attr) {
                None => {
                    return Err(ModelError::UnknownAttribute {
                        class: class.clone(),
                        attr: attr.clone(),
                    })
                }
                Some((_, def)) => {
                    if !def.ty.admits(value) {
                        return Err(ModelError::TypeMismatch {
                            class: class.clone(),
                            attr: attr.clone(),
                            expected: def.ty.to_string(),
                            got: value.kind().to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Removes an object, returning it.
    pub fn remove(&mut self, id: ObjectId) -> Result<Object> {
        let obj = self
            .objects
            .remove(&id)
            .ok_or(ModelError::UnknownObject(id))?;
        if let Some(ext) = self.extents.get_mut(&obj.class) {
            if let Some(pos) = ext.iter().position(|&o| o == id) {
                Arc::make_mut(ext).remove(pos);
            }
        }
        Ok(Arc::try_unwrap(obj).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Updates one attribute of an object, type-checking the new value.
    pub fn update(&mut self, id: ObjectId, attr: impl Into<AttrName>, value: Value) -> Result<()> {
        let attr = attr.into();
        let class = self
            .objects
            .get(&id)
            .ok_or(ModelError::UnknownObject(id))?
            .class
            .clone();
        match self.schema.resolve_attr(&class, &attr) {
            None => Err(ModelError::UnknownAttribute { class, attr }),
            Some((_, def)) => {
                if !def.ty.admits(&value) {
                    return Err(ModelError::TypeMismatch {
                        class,
                        attr,
                        expected: def.ty.to_string(),
                        got: value.kind().to_string(),
                    });
                }
                Arc::make_mut(self.objects.get_mut(&id).expect("checked above")).set(attr, value);
                Ok(())
            }
        }
    }

    /// Looks up an object by id.
    pub fn object(&self, id: ObjectId) -> Option<&Object> {
        self.objects.get(&id).map(|o| &**o)
    }

    /// Looks up an object, erroring if absent.
    pub fn object_req(&self, id: ObjectId) -> Result<&Object> {
        self.objects
            .get(&id)
            .map(|o| &**o)
            .ok_or(ModelError::UnknownObject(id))
    }

    /// All objects, in id order.
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        self.objects.values().map(|o| &**o)
    }

    /// All objects as the `Arc`s the database holds, in id order: a
    /// whole build ([`Database::from_objects`]) can keep the objects it
    /// leaves unchanged without copying them.
    pub fn shared_objects(&self) -> impl Iterator<Item = &Arc<Object>> {
        self.objects.values()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects exist.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The *direct* extent of a class (most-specific instances only).
    pub fn extent(&self, class: &ClassName) -> &[ObjectId] {
        self.extents.get(class).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The *extension* of a class: its direct extent plus the extents of
    /// all descendants (TM semantics: `self` in a class constraint ranges
    /// over the extension).
    pub fn extension(&self, class: &ClassName) -> Vec<ObjectId> {
        let mut out = self.extent(class).to_vec();
        for d in self.schema.descendants(class) {
            out.extend_from_slice(self.extent(&d));
        }
        out
    }

    /// Follows an attribute path from an object, dereferencing object
    /// references. E.g. `publisher.name` on a `Proceedings` object reads
    /// the `publisher` ref, then `name` on the referenced `Publisher`.
    ///
    /// Returns `Null` if any step is null; errors on dangling references.
    pub fn navigate(&self, obj: &Object, path: &[AttrName]) -> Result<Value> {
        self.navigate_ref(obj, path).cloned()
    }

    /// Borrowing variant of [`Database::navigate`]: returns a reference
    /// into the object graph instead of cloning the final value. Hot paths
    /// (the merge phase's hash joins) use this to compare and hash values
    /// without allocating.
    pub fn navigate_ref<'a>(&'a self, obj: &'a Object, path: &[AttrName]) -> Result<&'a Value> {
        let mut cur = obj;
        for (i, attr) in path.iter().enumerate() {
            let v = cur.get(attr);
            if i + 1 == path.len() {
                return Ok(v);
            }
            match v {
                Value::Null => return Ok(&Value::Null),
                Value::Ref(id) => {
                    cur = self.object_req(*id)?;
                }
                other => {
                    return Err(ModelError::TypeMismatch {
                        class: cur.class.clone(),
                        attr: attr.clone(),
                        expected: "ref".into(),
                        got: other.kind().into(),
                    })
                }
            }
        }
        Ok(&Value::Null)
    }

    /// Registers a virtual class and migrates nothing — helper used by the
    /// conformation phase.
    pub fn add_virtual_class(&mut self, def: crate::schema::ClassDef) -> Result<()> {
        let name = def.name.clone();
        Arc::make_mut(&mut self.schema).add_class(def)?;
        self.extents.entry(name).or_default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClassDef;
    use crate::types::Type;

    fn db() -> Database {
        let schema = Schema::new(
            "Bookseller",
            vec![
                ClassDef::new("Publisher")
                    .attr("name", Type::Str)
                    .attr("location", Type::Str),
                ClassDef::new("Item")
                    .attr("title", Type::Str)
                    .attr("isbn", Type::Str)
                    .attr("publisher", Type::Ref(ClassName::new("Publisher")))
                    .attr("shopprice", Type::Real)
                    .attr("libprice", Type::Real),
                ClassDef::new("Proceedings")
                    .isa("Item")
                    .attr("ref?", Type::Bool)
                    .attr("rating", Type::Range(1, 10)),
                ClassDef::new("Monograph")
                    .isa("Item")
                    .attr("subjects", Type::pstring()),
            ],
        )
        .unwrap();
        Database::new(schema, 2)
    }

    #[test]
    fn create_and_lookup() {
        let mut d = db();
        let p = d
            .create(
                "Publisher",
                vec![("name", "IEEE".into()), ("location", "NY".into())],
            )
            .unwrap();
        let o = d.object(p).unwrap();
        assert_eq!(o.get(&AttrName::new("name")), &Value::str("IEEE"));
        assert_eq!(o.id.space(), 2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn typecheck_rejects_bad_attr_and_type() {
        let mut d = db();
        let err = d
            .create("Publisher", vec![("bogus", Value::int(1))])
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownAttribute { .. }));
        let err = d
            .create("Publisher", vec![("name", Value::int(1))])
            .unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
    }

    #[test]
    fn range_type_enforced() {
        let mut d = db();
        let err = d
            .create("Proceedings", vec![("rating", Value::int(11))])
            .unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
        assert!(d
            .create("Proceedings", vec![("rating", Value::int(10))])
            .is_ok());
    }

    #[test]
    fn extent_vs_extension() {
        let mut d = db();
        d.create("Item", vec![]).unwrap();
        d.create("Proceedings", vec![]).unwrap();
        d.create("Monograph", vec![]).unwrap();
        assert_eq!(d.extent(&ClassName::new("Item")).len(), 1);
        assert_eq!(d.extension(&ClassName::new("Item")).len(), 3);
        assert_eq!(d.extension(&ClassName::new("Proceedings")).len(), 1);
    }

    #[test]
    fn navigate_ref_path() {
        let mut d = db();
        let p = d.create("Publisher", vec![("name", "ACM".into())]).unwrap();
        let i = d
            .create("Proceedings", vec![("publisher", Value::Ref(p))])
            .unwrap();
        let obj = d.object(i).unwrap().clone();
        let v = d
            .navigate(&obj, &[AttrName::new("publisher"), AttrName::new("name")])
            .unwrap();
        assert_eq!(v, Value::str("ACM"));
    }

    #[test]
    fn navigate_null_short_circuits() {
        let mut d = db();
        let i = d.create("Proceedings", vec![]).unwrap();
        let obj = d.object(i).unwrap().clone();
        let v = d
            .navigate(&obj, &[AttrName::new("publisher"), AttrName::new("name")])
            .unwrap();
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn navigate_non_ref_intermediate_errors() {
        let mut d = db();
        let i = d.create("Item", vec![("title", "X".into())]).unwrap();
        let obj = d.object(i).unwrap().clone();
        let err = d
            .navigate(&obj, &[AttrName::new("title"), AttrName::new("name")])
            .unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
    }

    #[test]
    fn remove_and_update() {
        let mut d = db();
        let p = d.create("Publisher", vec![("name", "ACM".into())]).unwrap();
        d.update(p, "name", Value::str("IEEE")).unwrap();
        assert_eq!(
            d.object(p).unwrap().get(&AttrName::new("name")),
            &Value::str("IEEE")
        );
        let removed = d.remove(p).unwrap();
        assert_eq!(removed.id, p);
        assert!(d.object(p).is_none());
        assert!(d.extent(&ClassName::new("Publisher")).is_empty());
        assert!(matches!(d.remove(p), Err(ModelError::UnknownObject(_))));
    }

    #[test]
    fn update_rejects_type_mismatch() {
        let mut d = db();
        let p = d.create("Publisher", vec![]).unwrap();
        assert!(matches!(
            d.update(p, "name", Value::int(3)),
            Err(ModelError::TypeMismatch { .. })
        ));
        assert!(matches!(
            d.update(p, "ghost", Value::int(3)),
            Err(ModelError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut d = db();
        let id = d.fresh_id();
        let o = Object::new(id, ClassName::new("Publisher"));
        d.insert(o.clone()).unwrap();
        assert!(matches!(d.insert(o), Err(ModelError::DuplicateObject(_))));
    }

    #[test]
    fn fresh_ids_monotone_after_external_insert() {
        let mut d = db();
        let ext = Object::new(ObjectId::new(2, 10), ClassName::new("Publisher"));
        d.insert(ext).unwrap();
        let next = d.fresh_id();
        assert!(next.serial() > 10);
    }
}
