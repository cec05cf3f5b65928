//! A persistent ordered map: a path-copying B-tree whose nodes sit
//! behind [`Arc`].
//!
//! [`PMap`] is a drop-in for the parts of `BTreeMap` the store needs,
//! with one difference in cost: [`Clone`] is O(1). A clone shares every
//! node with the original; a later write copies only the nodes on the
//! path from the root to the entry it changes (`Arc::make_mut`), and
//! mutates a node in place when nothing else shares it. Both maps stay
//! independent values — a write to one is never visible through the
//! other. This is the structural sharing of Okasaki's persistent trees
//! and of copy-on-write B-trees such as LMDB's, in safe std-only Rust.
//!
//! Iteration and `Debug` follow key order exactly as `BTreeMap` does,
//! so swapping one for the other changes no output.
//!
//! # Shape
//!
//! Every node but the root holds between 5 and 11 entries sorted by
//! key; an internal node with `e` entries has `e + 1`
//! children, and every leaf lies at the same depth. `get`, `get_mut`,
//! `insert` and `remove` are O(log n); a write that finds its path
//! unshared allocates nothing except when a node splits.
//! [`PMap::check_structure`] verifies all of this, for property tests.
//!
//! A map grown by `insert` leaves most nodes about half full: a split
//! keeps `T` entries on the left, and ascending keys never come back to
//! them. [`PMap::from_sorted`] builds a whole map from ascending entries
//! bottom-up in O(n) instead, as std's `BTreeMap` does for sorted input:
//! a level of `m` entries takes the fewest nodes that hold them,
//! `ceil((m + 1) / 12)`, with the entries spread evenly, so on a large
//! map nearly every node holds 10 or 11 entries. It has the same
//! contents and key order and passes the same shape check as the map
//! the insert loop builds, in about half the nodes.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Minimum degree of the tree.
const T: usize = 6;
/// Most entries a node holds.
const MAX: usize = 2 * T - 1;
/// Fewest entries a non-root node holds.
const MIN: usize = T - 1;
/// Entry slots per node: one more than `MAX`, so an insert can overflow
/// a node before it splits.
const SLOTS: usize = MAX + 1;

/// A node. Its entries live inline, so a lookup touches one allocation
/// per level (plus the child list of an internal node); only slots
/// `0..len` are occupied, sorted by key.
struct Node<K, V> {
    len: usize,
    entries: [Option<(K, V)>; SLOTS],
    /// Empty for a leaf; `len + 1` subtrees otherwise.
    children: Vec<Arc<Node<K, V>>>,
}

impl<K: Clone, V: Clone> Clone for Node<K, V> {
    /// The path-copying step. An internal copy reserves room for one
    /// more child, so a split below it never reallocates.
    fn clone(&self) -> Self {
        let mut children = Vec::new();
        if !self.children.is_empty() {
            children.reserve_exact(SLOTS + 1);
            children.extend(self.children.iter().cloned());
        }
        Node {
            len: self.len,
            entries: self.entries.clone(),
            children,
        }
    }
}

impl<K, V> Node<K, V> {
    fn empty() -> Self {
        Node {
            len: 0,
            entries: std::array::from_fn(|_| None),
            children: Vec::new(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// The occupied entries.
    fn occupied(&self) -> &[Option<(K, V)>] {
        &self.entries[..self.len]
    }

    /// A linear scan: at most 11 keys, so it beats a binary search's
    /// unpredictable branches, as in std's B-tree.
    fn search<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        for (i, entry) in self.occupied().iter().enumerate() {
            let Some((k, _)) = entry else {
                return Err(i);
            };
            match key.cmp(k.borrow()) {
                std::cmp::Ordering::Greater => {}
                std::cmp::Ordering::Equal => return Ok(i),
                std::cmp::Ordering::Less => return Err(i),
            }
        }
        Err(self.len)
    }

    /// Puts `entry` at slot `i`, shifting the later entries right.
    fn insert_slot(&mut self, i: usize, entry: Option<(K, V)>) {
        if i < self.len {
            self.entries[i..=self.len].rotate_right(1);
        }
        self.entries[i] = entry;
        self.len += 1;
    }

    /// Takes the entry at slot `i`, shifting the later entries left.
    fn remove_slot(&mut self, i: usize) -> Option<(K, V)> {
        let entry = self.entries[i].take();
        self.entries[i..self.len].rotate_left(1);
        self.len -= 1;
        entry
    }

    /// Appends `entry` after the last occupied slot.
    fn push_slot(&mut self, entry: Option<(K, V)>) {
        self.entries[self.len] = entry;
        self.len += 1;
    }

    /// A node holding `entries` in order over `children` (none for a
    /// leaf): a step of [`PMap::from_sorted`], which passes at most
    /// `MAX` entries and one more child than entries.
    fn filled(
        entries: impl IntoIterator<Item = (K, V)>,
        children: impl IntoIterator<Item = Arc<Node<K, V>>>,
    ) -> Self {
        let mut node = Node::empty();
        for entry in entries {
            node.push_slot(Some(entry));
        }
        node.children = children.into_iter().collect();
        node
    }
}

impl<K: Ord + Clone, V: Clone> Node<K, V> {
    /// Inserts below `self`. Returns the replaced value, or the right
    /// half and separator of `self` when the insert overflowed it.
    fn insert(&mut self, key: K, value: V) -> Insert<K, V> {
        let i = match self.search(&key) {
            Ok(i) => {
                return match &mut self.entries[i] {
                    Some((_, v)) => Insert::Replaced(Some(std::mem::replace(v, value))),
                    None => Insert::Replaced(None),
                }
            }
            Err(i) => i,
        };
        if self.is_leaf() {
            self.insert_slot(i, Some((key, value)));
        } else {
            match Arc::make_mut(&mut self.children[i]).insert(key, value) {
                Insert::Split(sep, right) => {
                    self.insert_slot(i, sep);
                    self.children.insert(i + 1, right);
                }
                done => return done,
            }
        }
        if self.len > MAX {
            self.split()
        } else {
            Insert::Added
        }
    }

    /// Splits an overflowing node (`MAX + 1` entries) around its median:
    /// `self` keeps the lower `T` entries, the returned node the upper
    /// `T - 1`, and the median moves up as their separator.
    fn split(&mut self) -> Insert<K, V> {
        let mid = self.len / 2;
        let mut right = Node::empty();
        for slot in &mut self.entries[mid + 1..self.len] {
            right.push_slot(slot.take());
        }
        let sep = self.entries[mid].take();
        self.len = mid;
        if !self.is_leaf() {
            right.children.reserve_exact(SLOTS + 1);
            right.children.extend(self.children.drain(mid + 1..));
        }
        Insert::Split(sep, Arc::new(right))
    }

    /// Removes `key` from below `self`, which may be left one entry
    /// short; the caller rebalances.
    fn remove<Q>(&mut self, key: &Q) -> Option<(K, V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        match self.search(key) {
            Ok(i) if self.is_leaf() => self.remove_slot(i),
            Ok(i) => {
                // Replace the entry with its in-order predecessor, the
                // largest entry of the subtree to its left.
                let pred = Arc::make_mut(&mut self.children[i]).pop_last();
                let removed = std::mem::replace(&mut self.entries[i], pred);
                self.rebalance(i);
                removed
            }
            Err(_) if self.is_leaf() => None,
            Err(i) => {
                let removed = Arc::make_mut(&mut self.children[i]).remove(key);
                self.rebalance(i);
                removed
            }
        }
    }

    /// Removes the largest entry below `self` (see [`Node::remove`]).
    fn pop_last(&mut self) -> Option<(K, V)> {
        if self.is_leaf() {
            return self.remove_slot(self.len - 1);
        }
        let last = self.children.len() - 1;
        let popped = Arc::make_mut(&mut self.children[last]).pop_last();
        self.rebalance(last);
        popped
    }

    /// Restores child `i` to at least `MIN` entries after a removal:
    /// borrows an entry through the separator from a sibling that can
    /// spare one, or else merges it with a sibling.
    fn rebalance(&mut self, i: usize) {
        if self.children[i].len >= MIN {
            return;
        }
        if i > 0 && self.children[i - 1].len > MIN {
            let (head, tail) = self.children.split_at_mut(i);
            let left = Arc::make_mut(&mut head[i - 1]);
            let child = Arc::make_mut(&mut tail[0]);
            let up = left.remove_slot(left.len - 1);
            let down = std::mem::replace(&mut self.entries[i - 1], up);
            child.insert_slot(0, down);
            if let Some(sub) = left.children.pop() {
                child.children.insert(0, sub);
            }
        } else if i + 1 < self.children.len() && self.children[i + 1].len > MIN {
            let (head, tail) = self.children.split_at_mut(i + 1);
            let child = Arc::make_mut(&mut head[i]);
            let right = Arc::make_mut(&mut tail[0]);
            let up = right.remove_slot(0);
            let down = std::mem::replace(&mut self.entries[i], up);
            child.push_slot(down);
            if !right.is_leaf() {
                child.children.push(right.children.remove(0));
            }
        } else if i > 0 {
            self.merge(i - 1);
        } else if i + 1 < self.children.len() {
            self.merge(i);
        }
    }

    /// Merges child `i + 1` and separator `i` into child `i`.
    fn merge(&mut self, i: usize) {
        let right = self.children.remove(i + 1);
        let sep = self.remove_slot(i);
        let left = Arc::make_mut(&mut self.children[i]);
        left.push_slot(sep);
        match Arc::try_unwrap(right) {
            Ok(mut right) => {
                let n = right.len;
                for slot in &mut right.entries[..n] {
                    left.push_slot(slot.take());
                }
                left.children.append(&mut right.children);
            }
            Err(shared) => {
                for slot in shared.occupied() {
                    left.push_slot(slot.clone());
                }
                left.children.extend(shared.children.iter().cloned());
            }
        }
    }
}

/// What [`Node::insert`] did.
enum Insert<K, V> {
    /// The key was present; its old value.
    Replaced(Option<V>),
    /// A new entry fits below the node.
    Added,
    /// A new entry overflowed the node: its new right sibling and the
    /// separator between them.
    Split(Option<(K, V)>, Arc<Node<K, V>>),
}

/// Why [`PMap::from_sorted`] refused its input: the entry at `index`
/// (counted from 0) has a key not greater than the one before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotAscending {
    /// Position of the first out-of-order or repeated key.
    pub index: usize,
}

impl fmt::Display for NotAscending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entry {} does not follow its predecessor in strictly ascending key order",
            self.index
        )
    }
}

impl std::error::Error for NotAscending {}

/// A persistent ordered map with O(1) [`Clone`]. See the module docs.
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> PMap<K, V> {
    /// An empty map (allocates nothing).
    pub const fn new() -> Self {
        PMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when both maps share their whole tree — `clone` and nothing
    /// written to either since (or both empty).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Looks up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match node.search(key) {
                Ok(i) => return node.entries[i].as_ref().map(|(_, v)| v),
                Err(i) => node = node.children.get(i)?,
            }
        }
    }

    /// True when the key is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut it = Iter {
            stack: Vec::new(),
            remaining: self.len,
        };
        if let Some(root) = self.root.as_deref() {
            it.descend(root);
        }
        it
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Builds a map from entries in strictly ascending key order, bottom
    /// up in O(n) (see the module docs for the node fill). Refuses the
    /// input, building nothing, at the first entry whose key is not
    /// greater than the one before it.
    pub fn from_sorted(entries: impl IntoIterator<Item = (K, V)>) -> Result<Self, NotAscending>
    where
        K: Ord,
    {
        let entries = entries.into_iter();
        let mut items: Vec<(K, V)> = Vec::with_capacity(entries.size_hint().0);
        for (index, (key, value)) in entries.enumerate() {
            if items.last().is_some_and(|(last, _)| *last >= key) {
                return Err(NotAscending { index });
            }
            items.push((key, value));
        }
        Ok(PMap::from_ascending(items))
    }

    /// [`PMap::from_sorted`]'s build, on entries already known to
    /// ascend strictly.
    fn from_ascending(mut items: Vec<(K, V)>) -> Self {
        let len = items.len();
        if len == 0 {
            return PMap::new();
        }
        // One level per pass, leaves first: `items` are the level's
        // entries in order and `children` the level below's nodes, one
        // more than `items` (none at the leaves). A level of `m` entries
        // takes `ceil((m + 1) / SLOTS)` nodes; the `nodes - 1` entries
        // between them become the next level's entries.
        let mut children: Vec<Arc<Node<K, V>>> = Vec::new();
        while items.len() > MAX {
            let m = items.len();
            let nodes = (m + SLOTS) / SLOTS;
            let kept = m + 1 - nodes;
            let (base, extra) = (kept / nodes, kept % nodes);
            let mut items_in = items.into_iter();
            let mut children_in = children.into_iter();
            let mut up = Vec::with_capacity(nodes - 1);
            let mut level = Vec::with_capacity(nodes);
            for i in 0..nodes {
                let k = base + usize::from(i < extra);
                level.push(Arc::new(Node::filled(
                    items_in.by_ref().take(k),
                    children_in.by_ref().take(k + 1),
                )));
                up.extend(items_in.next());
            }
            items = up;
            children = level;
        }
        PMap {
            root: Some(Arc::new(Node::filled(items, children))),
            len,
        }
    }

    /// Checks the tree's shape: keys strictly ascending, every non-root
    /// node holding `MIN..=MAX` entries (the root `1..=MAX`), every
    /// internal node one child more than entries, every leaf at one
    /// depth, and the cached length equal to the entry count. `Err`
    /// names the first violation. For property tests; a correct map
    /// always passes.
    pub fn check_structure(&self) -> Result<(), String>
    where
        K: Ord + fmt::Debug,
    {
        let Some(root) = self.root.as_deref() else {
            return match self.len {
                0 => Ok(()),
                n => Err(format!("empty tree but cached length {n}")),
            };
        };
        let mut walk = Walk {
            leaf_depth: None,
            count: 0,
            last: None,
        };
        walk.node(root, 0, true)?;
        if walk.count != self.len {
            return Err(format!(
                "cached length {} but {} entries",
                self.len, walk.count
            ));
        }
        Ok(())
    }
}

/// State of [`PMap::check_structure`]'s in-order walk.
struct Walk<'a, K> {
    leaf_depth: Option<usize>,
    count: usize,
    last: Option<&'a K>,
}

impl<'a, K: Ord + fmt::Debug> Walk<'a, K> {
    fn node<V>(&mut self, node: &'a Node<K, V>, depth: usize, root: bool) -> Result<(), String> {
        let n = node.len;
        let low = if root { 1 } else { MIN };
        if n < low || n > MAX {
            return Err(format!(
                "node at depth {depth} holds {n} entries, outside {low}..={MAX}"
            ));
        }
        if node.is_leaf() {
            match self.leaf_depth {
                None => self.leaf_depth = Some(depth),
                Some(d) if d != depth => {
                    return Err(format!("leaves at depths {d} and {depth}"));
                }
                Some(_) => {}
            }
        } else if node.children.len() != n + 1 {
            return Err(format!(
                "internal node at depth {depth} has {n} entries but {} children",
                node.children.len()
            ));
        }
        if node.entries[n..].iter().any(Option::is_some) {
            return Err(format!(
                "node at depth {depth} holds entries past its length"
            ));
        }
        for (i, entry) in node.occupied().iter().enumerate() {
            let Some((key, _)) = entry else {
                return Err(format!("node at depth {depth} has an empty slot {i}"));
            };
            if let Some(child) = node.children.get(i) {
                self.node(child, depth + 1, false)?;
            }
            if let Some(prev) = self.last {
                if prev >= key {
                    return Err(format!("key {key:?} follows {prev:?}"));
                }
            }
            self.last = Some(key);
            self.count += 1;
        }
        match node.children.get(n) {
            Some(child) => self.node(child, depth + 1, false),
            None => Ok(()),
        }
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Inserts `value` under `key`, returning the value it replaced.
    /// Copies the shared nodes on the key's path; splits propagate up.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(root) = self.root.as_mut() else {
            let mut leaf = Node::empty();
            leaf.push_slot(Some((key, value)));
            self.root = Some(Arc::new(leaf));
            self.len = 1;
            return None;
        };
        match Arc::make_mut(root).insert(key, value) {
            Insert::Replaced(old) => return old,
            Insert::Added => {}
            Insert::Split(sep, right) => {
                let mut top = Node::empty();
                top.push_slot(sep);
                top.children.reserve_exact(SLOTS + 1);
                top.children.push(Arc::clone(root));
                top.children.push(right);
                *root = Arc::new(top);
            }
        }
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value. A missing key copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(key) {
            return None;
        }
        let root = self.root.as_mut()?;
        let (_, value) = Arc::make_mut(root).remove(key)?;
        self.len -= 1;
        if root.len == 0 {
            // The root lost its last separator: its only child (if any)
            // becomes the root, and the tree is one level shorter.
            self.root = root.children.first().cloned();
        }
        Some(value)
    }

    /// Mutable access to `key`'s value, copying the shared nodes on its
    /// path first. A missing key copies nothing.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        if !self.contains_key(key) {
            return None;
        }
        let mut node = Arc::make_mut(self.root.as_mut()?);
        loop {
            match node.search(key) {
                Ok(i) => return node.entries[i].as_mut().map(|(_, v)| v),
                Err(i) => node = Arc::make_mut(node.children.get_mut(i)?),
            }
        }
    }
}

impl<K, V> Clone for PMap<K, V> {
    /// O(1): the clone shares the whole tree.
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    /// `{k: v, ...}` in key order, byte-identical to `BTreeMap`'s.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for PMap<K, V> {
    /// Builds the map whole, as std's `BTreeMap` does: one stable sort
    /// by key, the last entry of equal keys kept, then
    /// [`PMap::from_sorted`]'s bottom-up build. The sort costs O(n) on
    /// entries that already ascend or descend. An insert loop keeps the
    /// same values but the first of equal keys, which differs only for
    /// keys that compare equal yet print apart, such as `-0.0` and `0.0`.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut items: Vec<(K, V)> = iter.into_iter().collect();
        // Reversed, the stable sort puts the last of equal keys first,
        // and `dedup_by` keeps the first of each run.
        items.reverse();
        items.sort_by(|a, b| a.0.cmp(&b.0));
        items.dedup_by(|a, b| a.0 == b.0);
        PMap::from_ascending(items)
    }
}

/// In-order iterator over a [`PMap`]: a stack of (node, next entry).
pub struct Iter<'a, K, V> {
    stack: Vec<(&'a Node<K, V>, usize)>,
    remaining: usize,
}

impl<'a, K, V> Iter<'a, K, V> {
    /// Pushes `node` and its leftmost descendants.
    fn descend(&mut self, mut node: &'a Node<K, V>) {
        loop {
            self.stack.push((node, 0));
            match node.children.first() {
                Some(child) => node = child,
                None => return,
            }
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, next) = self.stack.last_mut()?;
            let node: &'a Node<K, V> = node;
            let i = *next;
            if let Some(Some((k, v))) = node.occupied().get(i) {
                *next += 1;
                if let Some(child) = node.children.get(i + 1) {
                    self.descend(child);
                }
                self.remaining -= 1;
                return Some((k, v));
            }
            self.stack.pop();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_copy_nothing() {
        let mut a: PMap<u32, u32> = (0..100).map(|i| (i * 2, i)).collect();
        let b = a.clone();
        assert_eq!(a.get_mut(&3), None);
        assert_eq!(a.remove(&5), None);
        assert!(a.ptr_eq(&b));
    }

    #[test]
    fn borrowed_lookups() {
        let mut m: PMap<Vec<u8>, u8> = PMap::new();
        m.insert(vec![1, 2], 3);
        assert_eq!(m.get(&[1u8, 2][..]), Some(&3));
        assert_eq!(m.remove(&[1u8, 2][..]), Some(3));
        assert!(m.is_empty());
    }
}
