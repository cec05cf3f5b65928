//! Objects: identity plus attribute valuation.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

use crate::ident::{AttrName, ClassName};
use crate::value::Value;

/// A globally unique object identity.
///
/// The high half identifies the *space* the object was created in (one per
/// [`crate::Database`], plus fresh spaces for virtual objects created
/// during conformation and global objects created during merging); the low
/// half is a per-space counter. Packing both into one `Copy` value keeps
/// maps keyed on object identity cheap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId {
    space: u32,
    serial: u64,
}

impl ObjectId {
    /// Builds an id from a space tag and serial number.
    pub fn new(space: u32, serial: u64) -> Self {
        ObjectId { space, serial }
    }

    /// The space (database) tag.
    pub fn space(self) -> u32 {
        self.space
    }

    /// The per-space serial.
    pub fn serial(self) -> u64 {
        self.serial
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.space, self.serial)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId({self})")
    }
}

/// An object: identity, most-specific class, and attribute values.
///
/// Inherited attributes are stored flat on the object — the schema decides
/// which attribute names are legal for the object's class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Object {
    /// The object's identity.
    pub id: ObjectId,
    /// The most specific class the object is an instance of.
    pub class: ClassName,
    /// Attribute valuation. Absent attributes read as [`Value::Null`].
    pub attrs: BTreeMap<AttrName, Value>,
}

impl Object {
    /// Creates an object with no attribute values set.
    pub fn new(id: ObjectId, class: ClassName) -> Self {
        Object {
            id,
            class,
            attrs: BTreeMap::new(),
        }
    }

    /// Builder-style attribute setter.
    pub fn with(mut self, attr: impl Into<AttrName>, value: impl Into<Value>) -> Self {
        self.attrs.insert(attr.into(), value.into());
        self
    }

    /// Reads an attribute; missing attributes read as `Null`.
    pub fn get(&self, attr: &AttrName) -> &Value {
        self.attrs.get(attr).unwrap_or(&Value::Null)
    }

    /// Sets an attribute value.
    pub fn set(&mut self, attr: impl Into<AttrName>, value: impl Into<Value>) {
        self.attrs.insert(attr.into(), value.into());
    }
}

/// A compact attribute valuation: the `BTreeMap<AttrName, Value>`
/// interface (sorted iteration, map-shaped `Debug`, last insert wins)
/// over one sorted vector. A valuation holds a handful of attributes,
/// and a vector of them takes one exact-size allocation where a B-tree
/// node reserves room for eleven entries; lookups are a binary search
/// either way. The merge phase keeps one per global object
/// (`interop_merge::GlobalObject`), and an integrated view holds one
/// global object per source pair.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct AttrMap(Vec<(AttrName, Value)>);

/// A borrowed `(attribute, value)` entry, as `BTreeMap::iter` yields it.
type EntryRef<'a> = (&'a AttrName, &'a Value);

fn entry_ref((attr, value): &(AttrName, Value)) -> EntryRef<'_> {
    (attr, value)
}

/// Iterator over an [`AttrMap`] in attribute order.
pub type AttrIter<'a> =
    std::iter::Map<std::slice::Iter<'a, (AttrName, Value)>, fn(&(AttrName, Value)) -> EntryRef<'_>>;

impl AttrMap {
    /// An empty valuation (allocates nothing).
    pub const fn new() -> Self {
        AttrMap(Vec::new())
    }

    fn search(&self, attr: &AttrName) -> Result<usize, usize> {
        self.0.binary_search_by(|(a, _)| a.cmp(attr))
    }

    /// Number of attributes set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no attribute is set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value of `attr`, if set.
    pub fn get(&self, attr: &AttrName) -> Option<&Value> {
        self.search(attr).ok().map(|i| &self.0[i].1)
    }

    /// True when `attr` is set.
    pub fn contains_key(&self, attr: &AttrName) -> bool {
        self.search(attr).is_ok()
    }

    /// Sets `attr`, returning the value it replaced.
    pub fn insert(&mut self, attr: AttrName, value: Value) -> Option<Value> {
        match self.search(&attr) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (attr, value));
                None
            }
        }
    }

    /// `(attribute, value)` entries in attribute order.
    pub fn iter(&self) -> AttrIter<'_> {
        self.0
            .iter()
            .map(entry_ref as fn(&(AttrName, Value)) -> EntryRef<'_>)
    }

    /// The values, in attribute order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &Value> + ExactSizeIterator {
        self.0.iter().map(|(_, v)| v)
    }

    /// Mutable values, in attribute order.
    pub fn values_mut(
        &mut self,
    ) -> impl DoubleEndedIterator<Item = &mut Value> + ExactSizeIterator {
        self.0.iter_mut().map(|(_, v)| v)
    }
}

impl fmt::Debug for AttrMap {
    /// `{attr: value, ...}`, exactly as `BTreeMap`'s `Debug`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(AttrName, Value)> for AttrMap {
    /// Sorts by attribute; of duplicate attributes the last one wins, as
    /// when collecting into a `BTreeMap`.
    fn from_iter<I: IntoIterator<Item = (AttrName, Value)>>(iter: I) -> Self {
        let mut entries: Vec<(AttrName, Value)> = iter.into_iter().collect();
        // Stable, so equal attributes stay in arrival order; `dedup_by`
        // then moves each later duplicate into the slot it keeps.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        AttrMap(entries)
    }
}

impl<'a> IntoIterator for &'a AttrMap {
    type Item = EntryRef<'a>;
    type IntoIter = AttrIter<'a>;

    fn into_iter(self) -> AttrIter<'a> {
        self.iter()
    }
}

impl Index<&AttrName> for AttrMap {
    type Output = Value;

    /// The value of `attr`; panics when it is not set, like indexing a
    /// `BTreeMap`.
    fn index(&self, attr: &AttrName) -> &Value {
        match self.get(attr) {
            Some(v) => v,
            None => panic!("attribute {attr} is not set"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_packing() {
        let id = ObjectId::new(3, 42);
        assert_eq!(id.space(), 3);
        assert_eq!(id.serial(), 42);
        assert_eq!(id.to_string(), "3:42");
    }

    #[test]
    fn id_ordering_by_space_then_serial() {
        assert!(ObjectId::new(0, 99) < ObjectId::new(1, 0));
        assert!(ObjectId::new(1, 1) < ObjectId::new(1, 2));
    }

    #[test]
    fn object_builder_and_access() {
        let o = Object::new(ObjectId::new(0, 1), ClassName::new("Publication"))
            .with("isbn", "90-6196-001")
            .with("shopprice", 29.0);
        assert_eq!(o.get(&AttrName::new("isbn")), &Value::str("90-6196-001"));
        assert_eq!(o.get(&AttrName::new("shopprice")), &Value::real(29.0));
        assert_eq!(o.get(&AttrName::new("missing")), &Value::Null);
    }

    #[test]
    fn attr_map_behaves_like_a_btreemap() {
        use std::collections::BTreeMap;
        let pairs = [("b", 1i64), ("a", 2), ("c", 3), ("a", 4)];
        let map: AttrMap = pairs
            .iter()
            .map(|&(a, v)| (AttrName::new(a), Value::int(v)))
            .collect();
        let oracle: BTreeMap<AttrName, Value> = pairs
            .iter()
            .map(|&(a, v)| (AttrName::new(a), Value::int(v)))
            .collect();
        assert_eq!(format!("{map:?}"), format!("{oracle:?}"));
        assert!(map.iter().eq(oracle.iter()));
        let mut map = map;
        assert_eq!(map.insert("a".into(), Value::int(9)), Some(Value::int(4)));
        assert_eq!(map.insert("d".into(), Value::int(5)), None);
        assert_eq!(map[&"a".into()], Value::int(9));
        assert!(map.contains_key(&"d".into()) && !map.contains_key(&"e".into()));
        let attrs: Vec<&str> = map.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(attrs, ["a", "b", "c", "d"]);
    }

    #[test]
    fn set_overwrites() {
        let mut o = Object::new(ObjectId::new(0, 1), ClassName::new("C")).with("a", 1i64);
        o.set("a", 2i64);
        assert_eq!(o.get(&AttrName::new("a")), &Value::int(2));
    }
}
