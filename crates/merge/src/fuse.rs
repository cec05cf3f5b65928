//! Value fusion: merging equivalent objects into global objects and
//! determining global property values through decision functions (§2.3).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::rc::Rc;

use interop_conform::Conformed;
use interop_model::{AttrMap, AttrName, ClassName, FxHashMap, Object, ObjectId, Value};
use interop_spec::{Decision, Side};

use crate::index::ConformedIndex;
use crate::resolve::{EqMatch, MergeError, SimMatch};

/// Space tag of global (merged) object ids.
pub const GLOBAL_SPACE: u32 = 200;

/// The global id of the group led by `leader` (the group's smallest
/// conformed member id): the leader's `(space, serial)` packed into a
/// serial in [`GLOBAL_SPACE`].
///
/// Deriving the global id from the leader — instead of numbering groups
/// ordinally — makes it a *pure function of group membership*: inserting
/// or removing unrelated objects cannot shift the ids of untouched
/// groups, which is what lets [`crate::incremental`] patch the view in
/// place and still match a from-scratch merge byte for byte.
///
/// The packing is monotone in `(space, serial)` for serials below
/// 2^40 — every first-level merge, where spaces are small and serials
/// are object counters. Re-merging a materialised view (chaining) can
/// carry packed serials back in as input; `fuse_with` asserts the
/// derived ids stay strictly increasing across groups, so a collision
/// surfaces as an error instead of silent id aliasing.
pub fn global_id_for(leader: ObjectId) -> ObjectId {
    ObjectId::new(
        GLOBAL_SPACE,
        ((leader.space() as u64) << 40) | leader.serial(),
    )
}

/// A merged global object.
#[derive(Clone, Debug)]
pub struct GlobalObject {
    /// Global identity.
    pub id: ObjectId,
    /// Global attribute valuation (decision functions applied; references
    /// remapped to global ids).
    pub attrs: AttrMap,
    /// The contributing local (conformed) object, if any.
    pub local: Option<ObjectId>,
    /// The contributing remote (conformed) object, if any.
    pub remote: Option<ObjectId>,
    /// For each *equivalent* property: the conformed local and remote
    /// values plus the decision function that fused them. This is the
    /// evidence base for the implicit-conflict analysis (§5.2.1).
    pub fused: BTreeMap<AttrName, (Value, Value, Decision)>,
    /// Most-specific class memberships (local class, remote class, and
    /// similarity targets). Sorted and deduplicated — a tiny (1–3 entry)
    /// sorted vec instead of an ordered set, so building each global
    /// object skips a tree allocation.
    pub classes: Vec<ClassName>,
}

/// The fusion result.
#[derive(Clone, Debug)]
pub struct FuseResult {
    /// Global objects by id.
    pub objects: BTreeMap<ObjectId, GlobalObject>,
    /// Conformed-object id → global id (spaces are disjoint, so one map
    /// covers both sides and virtual objects).
    pub id_map: BTreeMap<ObjectId, ObjectId>,
    /// Fusion anomalies (value outside a decision function's domain,
    /// objects merged with more than one counterpart, ...).
    pub notes: Vec<String>,
}

/// The fallback when a decision function cannot fuse two values: keep the
/// local value when it is non-null, else the remote one. Returns the side
/// actually kept (`None` when both sides are null and nothing is kept).
fn fuse_fallback<'v>(lv: &'v Value, rv: &'v Value) -> (Option<Side>, &'v Value) {
    if !lv.is_null() {
        (Some(Side::Local), lv)
    } else if !rv.is_null() {
        (Some(Side::Remote), rv)
    } else {
        (None, lv)
    }
}

/// Merges matched objects and copies unmatched ones.
pub fn fuse(
    conf: &Conformed,
    eqs: &[EqMatch],
    sims: &[SimMatch],
) -> Result<FuseResult, MergeError> {
    fuse_with(conf, &ConformedIndex::new(conf), eqs, sims)
}

/// [`fuse`] over a prebuilt object index (shared across the phases by
/// [`crate::merge`]).
pub(crate) fn fuse_with(
    conf: &Conformed,
    idx: &ConformedIndex<'_>,
    eqs: &[EqMatch],
    sims: &[SimMatch],
) -> Result<FuseResult, MergeError> {
    let mut notes = Vec::new();
    let members_by_id = &idx.members;
    // Union-find over conformed object ids, indexed by member position.
    let mut uf = UnionFind::over(&idx.pos, members_by_id.len());
    for m in eqs {
        uf.union(m.local, m.remote);
    }
    // Group members by leader: one sorted pass gives groups in ascending
    // leader order with ascending members inside each group. Each entry
    // packs (leader index << 32 | member index); member indices follow
    // ascending id order, so sorting the packed words sorts groups by
    // leader id with ascending members inside each run.
    let mut grouped: Vec<u64> = (0..members_by_id.len() as u32)
        .map(|i| ((uf.leader_of_index(i) as u64) << 32) | i as u64)
        .collect();
    grouped.sort_unstable();
    // First pass: assign global ids (one per leader run) so references can
    // be remapped inline while objects are built. `gids` is parallel to
    // `members_by_id`, so the id map needs no extra hashing. Each group's
    // id derives from its leader id via `global_id_for`; the strictly-
    // increasing check turns a packing collision (possible only with
    // serials ≥ 2^40, i.e. chained re-merges) into an error.
    let mut gids: Vec<ObjectId> = vec![ObjectId::new(GLOBAL_SPACE, 0); members_by_id.len()];
    let mut serial = 0u64;
    let mut cur_leader = u64::MAX;
    let mut cur_gid = ObjectId::new(GLOBAL_SPACE, 0);
    let mut prev_gid: Option<ObjectId> = None;
    for packed in &grouped {
        if packed >> 32 != cur_leader {
            cur_gid = global_id_for(members_by_id[(packed >> 32) as usize].0);
            if prev_gid.is_some_and(|p| p >= cur_gid) {
                return Err(MergeError::Model(format!(
                    "global id collision: group of leader {} packs to already-assigned id {}",
                    members_by_id[(packed >> 32) as usize].0,
                    cur_gid
                )));
            }
            prev_gid = Some(cur_gid);
            serial += 1;
            cur_leader = packed >> 32;
        }
        gids[(*packed & u32::MAX as u64) as usize] = cur_gid;
    }
    // Conformed id → global id, through the shared member index.
    let global_of =
        |id: ObjectId| -> Option<ObjectId> { idx.pos.get(&id).map(|&i| gids[i as usize]) };
    let mut fuser = Fuser::new(conf);
    let mut objects: Vec<(ObjectId, GlobalObject)> = Vec::with_capacity(serial as usize);
    let mut start = 0;
    while start < grouped.len() {
        let leader = grouped[start] >> 32;
        let mut end = start;
        while end < grouped.len() && grouped[end] >> 32 == leader {
            end += 1;
        }
        let members = &grouped[start..end];
        start = end;
        let member_idx = |packed: u64| (packed & u32::MAX as u64) as usize;
        let gid = gids[member_idx(members[0])];
        let g = fuser.fuse_group(
            gid,
            members.iter().map(|p| {
                let (_, side, o) = members_by_id[member_idx(*p)];
                (side, o)
            }),
            &[],
            &global_of,
            &mut notes,
        );
        objects.push((gid, g));
    }
    let mut objects: BTreeMap<ObjectId, GlobalObject> = objects.into_iter().collect();
    // Similarity memberships.
    for s in sims {
        if let Some(gid) = global_of(s.subject) {
            let g = objects.get_mut(&gid).expect("gids target built objects");
            let c = match &s.virtual_class {
                None => &s.target,
                Some(v) => v,
            };
            if let Err(at) = g.classes.binary_search(c) {
                g.classes.insert(at, c.clone());
            }
        }
    }
    // Snapshot the id map into its deterministic output form: member ids
    // are already sorted, so the map bulk-builds from the zip.
    let id_map: BTreeMap<ObjectId, ObjectId> = members_by_id
        .iter()
        .zip(&gids)
        .map(|((id, _, _), gid)| (*id, *gid))
        .collect();
    Ok(FuseResult {
        objects,
        id_map,
        notes,
    })
}

/// The per-group fusion engine shared by the from-scratch [`fuse_with`]
/// pass and the incremental engine ([`crate::incremental`]): given a
/// group's members it produces the [`GlobalObject`] exactly as the
/// scratch pass would — same overlay, same decision-function
/// application, same notes, in the same order. Holds the per-merge
/// memoisation (resolved propeq attribute names, propeq applicability
/// per class pair) so repeated group fusions stay cheap.
pub(crate) struct Fuser<'a> {
    conf: &'a Conformed,
    /// Per-propeq conformed attribute, resolved once instead of per
    /// object.
    propeq_attrs: Vec<Option<AttrName>>,
    /// Memoised propeq applicability per (local class, remote class)
    /// pair — `is_subclass` walks the isa chain, so resolve each pair
    /// once. Keyed by the class names' refcount pointers: class names on
    /// conformed objects are clones of the same schema-owned `Arc`s, so
    /// the pointer pair identifies the pair without hashing strings.
    /// (Distinct `Arc`s spelling the same class would only cost a
    /// duplicate cache entry with the same value.)
    propeq_cache: FxHashMap<(usize, usize), Rc<Vec<usize>>>,
}

impl<'a> Fuser<'a> {
    pub(crate) fn new(conf: &'a Conformed) -> Self {
        let propeq_attrs = conf
            .spec
            .propeqs
            .iter()
            .map(|pe| pe.conformed_name.head().cloned())
            .collect();
        Fuser {
            conf,
            propeq_attrs,
            propeq_cache: FxHashMap::default(),
        }
    }

    /// Fuses one group into its [`GlobalObject`]. `members` must arrive
    /// in ascending conformed-id order (as the scratch grouping pass
    /// produces); `sim_classes` holds extra sorted class memberships
    /// from similarity matches (the scratch pass applies those in a
    /// post-pass instead and passes `&[]` here); `global_of` remaps
    /// reference values; anomaly `notes` are appended in the same order
    /// the scratch pass emits them.
    pub(crate) fn fuse_group<'o>(
        &mut self,
        gid: ObjectId,
        members: impl Iterator<Item = (Side, &'o Object)>,
        sim_classes: &[ClassName],
        global_of: &impl Fn(ObjectId) -> Option<ObjectId>,
        notes: &mut Vec<String>,
    ) -> GlobalObject {
        let conf = self.conf;
        let mut lobj: Option<&Object> = None;
        let mut robj: Option<&Object> = None;
        let (mut n_local, mut n_remote) = (0usize, 0usize);
        for (side, o) in members {
            match side {
                Side::Local => {
                    n_local += 1;
                    lobj = lobj.or(Some(o));
                }
                Side::Remote => {
                    n_remote += 1;
                    robj = robj.or(Some(o));
                }
            }
        }
        if n_local > 1 || n_remote > 1 {
            notes.push(format!(
                "global object {gid}: merged {n_local} local and {n_remote} remote objects; \
                 decision functions applied to the first of each"
            ));
        }
        // Start from remote values, overlay local (implicit `any` with a
        // deterministic local preference), then apply declared propeqs.
        let mut attrs: AttrMap = overlay_attrs(lobj, robj);
        let mut fused: BTreeMap<AttrName, (Value, Value, Decision)> = BTreeMap::new();
        if let (Some(l), Some(r)) = (lobj, robj) {
            let applicable = self
                .propeq_cache
                .entry((l.class.alloc_ptr(), r.class.alloc_ptr()))
                .or_insert_with(|| {
                    Rc::new(
                        conf.spec
                            .propeqs
                            .iter()
                            .enumerate()
                            .filter(|(_, pe)| {
                                conf.local.db.schema.is_subclass(&l.class, &pe.local_class)
                                    && conf
                                        .remote
                                        .db
                                        .schema
                                        .is_subclass(&r.class, &pe.remote_class)
                            })
                            .map(|(i, _)| i)
                            .collect(),
                    )
                })
                .clone();
            for &i in applicable.iter() {
                let pe = &conf.spec.propeqs[i];
                let attr = match &self.propeq_attrs[i] {
                    Some(a) => a.clone(),
                    None => continue,
                };
                let lv = l.get(&attr).clone();
                let rv = r.get(&attr).clone();
                match pe.df.apply(&lv, &rv) {
                    Some(g) => {
                        attrs.insert(attr.clone(), g);
                        fused.insert(attr, (lv, rv, pe.df));
                    }
                    None if fused.contains_key(&attr) => {
                        // An earlier propeq already fused this attribute;
                        // the fallback must not clobber its result.
                        notes.push(format!(
                            "global object {gid}: decision function {} cannot fuse {lv} and {rv} \
                             for '{attr}'; kept the previously fused value",
                            pe.df
                        ));
                    }
                    None => {
                        // Explicit fallback: local when non-null, else
                        // remote — and report the side actually kept (the
                        // remote/local overlay above already agrees).
                        let (side, kept) = fuse_fallback(&lv, &rv);
                        let side = match side {
                            Some(Side::Local) => "local",
                            Some(Side::Remote) => "remote",
                            None => "no",
                        };
                        if !kept.is_null() {
                            attrs.insert(attr.clone(), kept.clone());
                        }
                        notes.push(format!(
                            "global object {gid}: decision function {} cannot fuse {lv} and {rv} \
                             for '{attr}'; kept the {side} value",
                            pe.df
                        ));
                    }
                }
            }
        }
        // Remap references to global ids (the id map is already total).
        for v in attrs.values_mut() {
            if has_ref(v) {
                *v = remap_value(v, global_of);
            }
        }
        let mut classes: Vec<ClassName> = Vec::new();
        if let Some(l) = lobj {
            classes.push(l.class.clone());
        }
        if let Some(r) = robj {
            if !classes.contains(&r.class) {
                classes.push(r.class.clone());
            }
        }
        classes.sort_unstable();
        for c in sim_classes {
            if let Err(at) = classes.binary_search(c) {
                classes.insert(at, c.clone());
            }
        }
        GlobalObject {
            id: gid,
            attrs,
            local: lobj.map(|o| o.id),
            remote: robj.map(|o| o.id),
            fused,
            classes,
        }
    }
}

/// The implicit-`any` valuation of a (possibly one-sided) merged pair:
/// remote values, overlaid by non-null local values. Singletons copy
/// their side's map as it stands; merged pairs are built as one merge walk
/// over the two sorted attribute maps so the result map is bulk-built
/// from sorted pairs instead of mutated entry by entry.
fn overlay_attrs(lobj: Option<&Object>, robj: Option<&Object>) -> AttrMap {
    let (l, r) = match (lobj, robj) {
        (None, None) => return AttrMap::new(),
        (None, Some(r)) => {
            return r
                .attrs
                .iter()
                .map(|(a, v)| (a.clone(), v.clone()))
                .collect()
        }
        (Some(l), None) => {
            // Local-side nulls are dropped (they must not shadow remote
            // values on merged objects, and singletons behave alike).
            if l.attrs.values().any(Value::is_null) {
                return l
                    .attrs
                    .iter()
                    .filter(|(_, v)| !v.is_null())
                    .map(|(a, v)| (a.clone(), v.clone()))
                    .collect();
            }
            return l
                .attrs
                .iter()
                .map(|(a, v)| (a.clone(), v.clone()))
                .collect();
        }
        (Some(l), Some(r)) => (l, r),
    };
    let mut pairs: Vec<(AttrName, Value)> = Vec::with_capacity(l.attrs.len() + r.attrs.len());
    let mut li = l.attrs.iter().peekable();
    let mut ri = r.attrs.iter().peekable();
    loop {
        match (li.peek(), ri.peek()) {
            (Some((la, lv)), Some((ra, rv))) => match la.cmp(ra) {
                Ordering::Less => {
                    if !lv.is_null() {
                        pairs.push(((*la).clone(), (*lv).clone()));
                    }
                    li.next();
                }
                Ordering::Greater => {
                    pairs.push(((*ra).clone(), (*rv).clone()));
                    ri.next();
                }
                Ordering::Equal => {
                    if lv.is_null() {
                        pairs.push(((*ra).clone(), (*rv).clone()));
                    } else {
                        pairs.push(((*la).clone(), (*lv).clone()));
                    }
                    li.next();
                    ri.next();
                }
            },
            (Some((la, lv)), None) => {
                if !lv.is_null() {
                    pairs.push(((*la).clone(), (*lv).clone()));
                }
                li.next();
            }
            (None, Some((ra, rv))) => {
                pairs.push(((*ra).clone(), (*rv).clone()));
                ri.next();
            }
            (None, None) => break,
        }
    }
    pairs.into_iter().collect()
}

fn has_ref(v: &Value) -> bool {
    match v {
        Value::Ref(_) => true,
        Value::Set(items) => items.iter().any(has_ref),
        _ => false,
    }
}

fn remap_value(v: &Value, global_of: &impl Fn(ObjectId) -> Option<ObjectId>) -> Value {
    match v {
        Value::Ref(id) => Value::Ref(global_of(*id).unwrap_or(*id)),
        Value::Set(items) => Value::Set(items.iter().map(|x| remap_value(x, global_of)).collect()),
        other => other.clone(),
    }
}

/// Path-compressed, rank-balanced union-find over a fixed id universe.
///
/// Each group carries a deterministic *leader* independent of the tree
/// shape the rank heuristic produces: on `union(a, b)`, the merged group
/// takes the *smaller* of the two leaders. The universe is enumerated in
/// ascending id order, so a group's leader is always its minimum member
/// id — a pure function of the partition, independent of the order in
/// which matches are emitted. That independence is what lets the
/// incremental engine re-derive a touched group's identity locally and
/// land on exactly the ids a from-scratch merge would assign.
struct UnionFind<'a> {
    index: &'a FxHashMap<ObjectId, u32>,
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Per root: the universe index of the group's deterministic leader.
    leader: Vec<u32>,
}

impl<'a> UnionFind<'a> {
    /// Builds the partition over a shared id→position index covering `n`
    /// universe members (positions `0..n`).
    fn over(index: &'a FxHashMap<ObjectId, u32>, n: usize) -> Self {
        debug_assert_eq!(n, index.len());
        UnionFind {
            index,
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            leader: (0..n as u32).collect(),
        }
    }

    /// The dense index of `id` in the universe, if known.
    #[cfg(test)]
    fn index_of(&self, id: ObjectId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    fn find(&mut self, mut i: u32) -> u32 {
        // Path halving: point every visited node at its grandparent.
        while self.parent[i as usize] != i {
            let gp = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = gp;
            i = gp;
        }
        i
    }

    /// Unions the groups of `a` and `b`; the smaller of the two group
    /// leaders names the merged group (leader = minimum member id). Ids
    /// outside the universe are ignored (matches can only reference
    /// conformed objects).
    fn union(&mut self, a: ObjectId, b: ObjectId) {
        let (Some(&ia), Some(&ib)) = (self.index.get(&a), self.index.get(&b)) else {
            return;
        };
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra == rb {
            return;
        }
        let la = self.leader[ra as usize].min(self.leader[rb as usize]);
        let root = match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            Ordering::Less => {
                self.parent[ra as usize] = rb;
                rb
            }
            Ordering::Greater => {
                self.parent[rb as usize] = ra;
                ra
            }
            Ordering::Equal => {
                self.parent[rb as usize] = ra;
                self.rank[ra as usize] += 1;
                ra
            }
        };
        self.leader[root as usize] = la;
    }

    /// The deterministic leader (as a universe index) of the group of the
    /// `i`-th universe id. Leader indices order the same way as leader
    /// ids: the universe is enumerated in ascending id order.
    fn leader_of_index(&mut self, i: u32) -> u32 {
        let r = self.find(i);
        self.leader[r as usize]
    }
}

/// Convenience: which side an id belongs to, given the conformed pair.
pub fn side_of(conf: &Conformed, id: ObjectId) -> Option<Side> {
    if conf.local.db.object(id).is_some() {
        Some(Side::Local)
    } else if conf.remote.db.object(id).is_some() {
        Some(Side::Remote)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::resolve;
    use interop_constraint::Catalog;
    use interop_model::{ClassDef, Database, Schema, Type};
    use interop_spec::{ComparisonRule, Conversion, InterCond, PropEq, Spec};

    fn fixture() -> Conformed {
        let local_schema = Schema::new(
            "L",
            vec![ClassDef::new("Publication")
                .attr("isbn", Type::Str)
                .attr("ourprice", Type::Real)
                .attr("shopprice", Type::Real)],
        )
        .unwrap();
        let remote_schema = Schema::new(
            "R",
            vec![ClassDef::new("Item")
                .attr("isbn", Type::Str)
                .attr("libprice", Type::Real)
                .attr("shopprice", Type::Real)],
        )
        .unwrap();
        let mut ldb = Database::new(local_schema, 1);
        ldb.create(
            "Publication",
            vec![
                ("isbn", "A".into()),
                ("ourprice", 26.0.into()),
                ("shopprice", 29.0.into()),
            ],
        )
        .unwrap();
        ldb.create("Publication", vec![("isbn", "L-only".into())])
            .unwrap();
        let mut rdb = Database::new(remote_schema, 2);
        rdb.create(
            "Item",
            vec![
                ("isbn", "A".into()),
                ("libprice", 22.0.into()),
                ("shopprice", 25.0.into()),
            ],
        )
        .unwrap();
        rdb.create("Item", vec![("isbn", "R-only".into())]).unwrap();
        let mut spec = Spec::new("L", "R");
        spec.add_rule(ComparisonRule::equality(
            "r1",
            "Publication",
            "Item",
            vec![InterCond::eq("isbn", "isbn")],
        ));
        // The paper's §5.1.3 example: libprice trusted locally, shopprice
        // trusted remotely.
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
            "Publication",
            "shopprice",
            "Item",
            "shopprice",
            Conversion::Id,
            Conversion::Id,
            Decision::Trust(Side::Remote),
        ));
        interop_conform::conform(&ldb, &Catalog::new(), &rdb, &Catalog::new(), &spec).unwrap()
    }

    /// A fixture whose decision function (avg over strings) cannot fuse;
    /// `with_local_value` controls whether the local side carries a value.
    fn unfusable_fixture(with_local_value: bool) -> Conformed {
        let local_schema = Schema::new(
            "L",
            vec![ClassDef::new("A").attr("k", Type::Str).attr("v", Type::Str)],
        )
        .unwrap();
        let remote_schema = Schema::new(
            "R",
            vec![ClassDef::new("B").attr("k", Type::Str).attr("v", Type::Str)],
        )
        .unwrap();
        let mut ldb = Database::new(local_schema, 1);
        let mut lattrs = vec![("k", Value::str("1"))];
        if with_local_value {
            lattrs.push(("v", Value::str("local-v")));
        }
        ldb.create("A", lattrs).unwrap();
        let mut rdb = Database::new(remote_schema, 2);
        rdb.create("B", vec![("k", "1".into()), ("v", "remote-v".into())])
            .unwrap();
        let mut spec = Spec::new("L", "R");
        spec.add_rule(ComparisonRule::equality(
            "r",
            "A",
            "B",
            vec![InterCond::eq("k", "k")],
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "A",
            "v",
            "B",
            "v",
            Conversion::Id,
            Conversion::Id,
            Decision::Avg, // avg over strings cannot fuse
        ));
        interop_conform::conform(&ldb, &Catalog::new(), &rdb, &Catalog::new(), &spec).unwrap()
    }

    #[test]
    fn paper_trust_fusion() {
        // §5.1.3: (libprice, shopprice) local (26, 29), remote (22, 25)
        // under trust(local)/trust(remote) give global (26, 25) — which
        // violates libprice <= shopprice even though both sides satisfied
        // it. Fusion must produce exactly those values.
        let conf = fixture();
        let (eqs, sims) = resolve(&conf).unwrap();
        let fused = fuse(&conf, &eqs, &sims).unwrap();
        let merged: Vec<&GlobalObject> = fused
            .objects
            .values()
            .filter(|g| g.local.is_some() && g.remote.is_some())
            .collect();
        assert_eq!(merged.len(), 1);
        let g = merged[0];
        assert_eq!(g.attrs[&AttrName::new("libprice")], Value::real(26.0));
        assert_eq!(g.attrs[&AttrName::new("shopprice")], Value::real(25.0));
        let (lv, rv, df) = &g.fused[&AttrName::new("libprice")];
        assert_eq!(lv, &Value::real(26.0));
        assert_eq!(rv, &Value::real(22.0));
        assert_eq!(*df, Decision::Trust(Side::Local));
    }

    #[test]
    fn unmatched_objects_become_singletons() {
        let conf = fixture();
        let (eqs, sims) = resolve(&conf).unwrap();
        let fused = fuse(&conf, &eqs, &sims).unwrap();
        assert_eq!(fused.objects.len(), 3); // merged + two singletons
        let singles: Vec<_> = fused
            .objects
            .values()
            .filter(|g| g.local.is_none() || g.remote.is_none())
            .collect();
        assert_eq!(singles.len(), 2);
        for g in singles {
            assert_eq!(g.classes.len(), 1);
        }
    }

    #[test]
    fn id_map_covers_all_conformed_objects() {
        let conf = fixture();
        let (eqs, sims) = resolve(&conf).unwrap();
        let fused = fuse(&conf, &eqs, &sims).unwrap();
        for obj in conf.local.db.objects().chain(conf.remote.db.objects()) {
            assert!(fused.id_map.contains_key(&obj.id));
        }
        // All global ids live in the global space.
        for gid in fused.objects.keys() {
            assert_eq!(gid.space(), GLOBAL_SPACE);
        }
    }

    #[test]
    fn null_sides_fall_back_to_present_value() {
        let conf = fixture();
        let (eqs, sims) = resolve(&conf).unwrap();
        let fused = fuse(&conf, &eqs, &sims).unwrap();
        // The remote-only item keeps its attrs.
        let r_only = fused.objects.values().find(|g| g.local.is_none()).unwrap();
        assert_eq!(r_only.attrs[&AttrName::new("isbn")], Value::str("R-only"));
    }

    #[test]
    fn unfusable_keeps_local_and_says_so() {
        let conf = unfusable_fixture(true);
        let (eqs, sims) = resolve(&conf).unwrap();
        let fused = fuse(&conf, &eqs, &sims).unwrap();
        let g = fused
            .objects
            .values()
            .find(|g| g.local.is_some() && g.remote.is_some())
            .expect("merged");
        assert_eq!(g.attrs[&AttrName::new("v")], Value::str("local-v"));
        let note = fused
            .notes
            .iter()
            .find(|n| n.contains("cannot fuse"))
            .expect("anomaly noted");
        assert!(note.contains("kept the local value"), "note: {note}");
    }

    #[test]
    fn unfusable_with_null_local_reports_remote() {
        // Regression for the misleading note: when the local value is null
        // the overlay keeps the *remote* value, and the note must say so.
        // (With the current decision functions a null side short-circuits
        // in `Decision::apply`, so the end-to-end path keeps the remote
        // value via the fused branch; the fallback itself is exercised
        // directly.)
        let (local_v, remote_v) = (Value::str("local-v"), Value::str("remote-v"));
        let (side, kept) = fuse_fallback(&Value::Null, &remote_v);
        assert_eq!(side, Some(Side::Remote));
        assert_eq!(kept, &remote_v);
        let (side, kept) = fuse_fallback(&local_v, &remote_v);
        assert_eq!(side, Some(Side::Local));
        assert_eq!(kept, &local_v);
        let (side, kept) = fuse_fallback(&Value::Null, &Value::Null);
        assert_eq!(side, None);
        assert!(kept.is_null());
        // End-to-end: a null local side under an unfusable-looking propeq
        // resolves to the remote value on the global object.
        let conf = unfusable_fixture(false);
        let (eqs, sims) = resolve(&conf).unwrap();
        let fused = fuse(&conf, &eqs, &sims).unwrap();
        let g = fused
            .objects
            .values()
            .find(|g| g.local.is_some() && g.remote.is_some())
            .expect("merged");
        assert_eq!(g.attrs[&AttrName::new("v")], Value::str("remote-v"));
        for note in &fused.notes {
            assert!(
                !note.contains("kept the local value"),
                "must not claim the local value was kept: {note}"
            );
        }
    }

    #[test]
    fn unfusable_propeq_does_not_clobber_earlier_fusion() {
        // Two propeqs resolve to the same conformed attribute: the first
        // (avg over ints) fuses, the second (union over ints) cannot. The
        // fallback must keep the fused average, not overwrite it with the
        // raw local value.
        let local_schema = Schema::new(
            "L",
            vec![ClassDef::new("A").attr("k", Type::Str).attr("v", Type::Int)],
        )
        .unwrap();
        let remote_schema = Schema::new(
            "R",
            vec![ClassDef::new("B").attr("k", Type::Str).attr("v", Type::Int)],
        )
        .unwrap();
        let mut ldb = Database::new(local_schema, 1);
        ldb.create("A", vec![("k", "1".into()), ("v", 4i64.into())])
            .unwrap();
        let mut rdb = Database::new(remote_schema, 2);
        rdb.create("B", vec![("k", "1".into()), ("v", 6i64.into())])
            .unwrap();
        let mut spec = Spec::new("L", "R");
        spec.add_rule(ComparisonRule::equality(
            "r",
            "A",
            "B",
            vec![InterCond::eq("k", "k")],
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "A",
            "v",
            "B",
            "v",
            Conversion::Id,
            Conversion::Id,
            Decision::Avg,
        ));
        spec.add_propeq(PropEq::named_after_remote(
            "A",
            "v",
            "B",
            "v",
            Conversion::Id,
            Conversion::Id,
            Decision::Union, // ints are not sets: cannot fuse
        ));
        let conf =
            interop_conform::conform(&ldb, &Catalog::new(), &rdb, &Catalog::new(), &spec).unwrap();
        let (eqs, sims) = resolve(&conf).unwrap();
        let fused = fuse(&conf, &eqs, &sims).unwrap();
        let g = fused
            .objects
            .values()
            .find(|g| g.local.is_some() && g.remote.is_some())
            .expect("merged");
        assert_eq!(g.attrs[&AttrName::new("v")], Value::int(5), "avg kept");
        let note = fused
            .notes
            .iter()
            .find(|n| n.contains("cannot fuse"))
            .expect("anomaly noted");
        assert!(
            note.contains("kept the previously fused value"),
            "note: {note}"
        );
    }

    #[test]
    fn union_find_compresses_and_tracks_leaders() {
        let ids: Vec<ObjectId> = (0..8).map(|i| ObjectId::new(1, i)).collect();
        let mut index: FxHashMap<ObjectId, u32> = FxHashMap::default();
        for (i, &id) in ids.iter().enumerate() {
            index.insert(id, i as u32);
        }
        let mut uf = UnionFind::over(&index, ids.len());
        let leader_of = |uf: &mut UnionFind, id: ObjectId| {
            let i = uf.index_of(id).expect("known id");
            ids[uf.leader_of_index(i) as usize]
        };
        // The leader is the minimum member id, whatever the union order:
        // unions deliberately name the larger id first.
        uf.union(ids[4], ids[3]);
        assert_eq!(leader_of(&mut uf, ids[4]), ids[3]);
        uf.union(ids[1], ids[2]);
        assert_eq!(leader_of(&mut uf, ids[2]), ids[1]);
        uf.union(ids[3], ids[1]); // merges {3,4} and {1,2} → leader 1
        for (i, id) in ids.iter().enumerate().take(5).skip(1) {
            assert_eq!(leader_of(&mut uf, *id), ids[1], "member {i}");
        }
        uf.union(ids[2], ids[0]); // absorbing the smaller id moves the leader
        for (i, id) in ids.iter().enumerate().take(5) {
            assert_eq!(leader_of(&mut uf, *id), ids[0], "member {i}");
        }
        assert_eq!(leader_of(&mut uf, ids[5]), ids[5]);
        // After find-driven compression every member points ≤1 hop from
        // the root.
        for (i, id) in ids.iter().enumerate().take(5) {
            let idx = uf.index_of(*id).unwrap();
            let p = uf.parent[idx as usize];
            assert_eq!(uf.parent[p as usize], p, "path compressed for {i}");
        }
        // Unknown ids are ignored.
        uf.union(ObjectId::new(9, 9), ids[0]);
        assert_eq!(leader_of(&mut uf, ids[0]), ids[0]);
    }
}
