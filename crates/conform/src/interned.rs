//! The interned schema/plan index shared by every conform-phase rewrite.
//!
//! The naive [`SidePlan`] lookups walk the `isa` chain (allocating the
//! ancestor vector and cloning map keys) on every call, and the rewriter
//! re-resolves attributes against the schema per constraint path. The
//! conform phase performs those lookups once per *object attribute* and
//! once per *constraint path* — the ordered-map-everywhere pattern the
//! merge overhaul removed from `interop-merge`. [`PlanIndex`] flattens
//! the hierarchy once per side: for every class, every visible attribute
//! is resolved to its declaration and its planned action (objectify /
//! rename+convert / keep), and ancestor sets make subclass tests O(1).
//! All conform-phase consumers (database transformation, constraint
//! rewriting, spec conformation) share one index per side.
//!
//! Everything here is lookup-only acceleration: outputs are emitted by
//! the same sorted passes as before, so conform output stays
//! byte-identical (pinned by the snapshot suite).

use interop_model::fx::{FxHashMap, FxHashSet};
use interop_model::{AttrDef, AttrName, ClassName, Schema};
use interop_spec::Conversion;

use crate::plan::{AttrPlan, Objectify, SidePlan};

/// The planned action for one `(class, attribute)`.
#[derive(Clone, Copy, Debug)]
pub enum AttrAction<'a> {
    /// The attribute's values are objectified into a virtual class. The
    /// `usize` is the objectification's position in
    /// `plan.objectifications` — virtual-object ids derive from it.
    Objectified(usize, &'a Objectify),
    /// The attribute is renamed/converted per a propeq.
    Planned(&'a AttrPlan),
}

/// One visible attribute of a class, fully resolved.
#[derive(Clone, Copy, Debug)]
pub struct AttrInfo<'a> {
    /// The declaration (carries the pre-conformation type).
    pub def: &'a AttrDef,
    /// The planned action, if any.
    pub action: Option<AttrAction<'a>>,
}

/// A side's schema and plan, flattened for O(1) lookups.
#[derive(Debug)]
pub struct PlanIndex<'a> {
    /// The side's (pre-conformation) schema.
    pub schema: &'a Schema,
    /// The side's plan.
    pub plan: &'a SidePlan,
    attrs: FxHashMap<ClassName, FxHashMap<AttrName, AttrInfo<'a>>>,
    ancestry: FxHashMap<ClassName, FxHashSet<ClassName>>,
}

impl<'a> PlanIndex<'a> {
    /// Builds the index top-down: parents are resolved before children,
    /// and each child *inherits* its parent's resolved attribute map
    /// (identifier clones are refcount bumps), so every declared
    /// attribute is resolved exactly once instead of once per
    /// (descendant, attribute) pair.
    ///
    /// Assumes the plan came from [`crate::plan::build_plans`], which
    /// keys `attr_map` by the attribute's declaring class and normalises
    /// objectifications to the reference attribute's declaring class.
    pub fn new(schema: &'a Schema, plan: &'a SidePlan) -> Self {
        let total = schema.len();
        // Topological order (parents first). The schema is validated
        // acyclic, so repeated scans terminate.
        let mut order: Vec<&interop_model::ClassDef> = Vec::with_capacity(total);
        let mut placed: FxHashSet<&ClassName> = FxHashSet::default();
        while order.len() < total {
            for def in schema.classes() {
                if placed.contains(&def.name) {
                    continue;
                }
                if def.parent.as_ref().is_none_or(|p| placed.contains(p)) {
                    placed.insert(&def.name);
                    order.push(def);
                }
            }
        }
        let mut attrs: FxHashMap<ClassName, FxHashMap<AttrName, AttrInfo<'a>>> =
            FxHashMap::default();
        let mut ancestry: FxHashMap<ClassName, FxHashSet<ClassName>> = FxHashMap::default();
        // Objectifications active per class (inherited down the chain),
        // kept sorted by plan position: when several objectifications
        // cover one attribute, the *first in plan order* wins — exactly
        // what the naive `SidePlan::objectify_for` find returns.
        let mut active: FxHashMap<&ClassName, Vec<(usize, &'a Objectify)>> = FxHashMap::default();
        for def in order {
            let class = &def.name;
            let (mut per_attr, mut ancs, mut act) = match &def.parent {
                Some(p) => (attrs[p].clone(), ancestry[p].clone(), active[p].clone()),
                None => Default::default(),
            };
            ancs.insert(class.clone());
            let mut newly_covered: Vec<&AttrName> = Vec::new();
            for (pos, o) in plan.objectifications.iter().enumerate() {
                if &o.described_class == class {
                    act.push((pos, o));
                    newly_covered.extend(o.attr_names.iter().map(|(a, _)| a));
                }
            }
            act.sort_unstable_by_key(|(pos, _)| *pos);
            let first_covering = |a: &AttrName| -> Option<(usize, &'a Objectify)> {
                act.iter()
                    .find(|(_, o)| o.attr_names.iter().any(|(x, _)| x == a))
                    .map(|(pos, o)| (*pos, *o))
            };
            // Re-resolve inherited attributes newly captured here.
            for a in newly_covered {
                if let Some(info) = per_attr.get_mut(a) {
                    info.action = first_covering(a).map(|(pos, o)| AttrAction::Objectified(pos, o));
                }
            }
            for adef in &def.attrs {
                let action = match first_covering(&adef.name) {
                    Some((pos, o)) => Some(AttrAction::Objectified(pos, o)),
                    None => plan
                        .attr_map
                        .get(&(class.clone(), adef.name.clone()))
                        .map(AttrAction::Planned),
                };
                per_attr.insert(adef.name.clone(), AttrInfo { def: adef, action });
            }
            attrs.insert(class.clone(), per_attr);
            ancestry.insert(class.clone(), ancs);
            active.insert(class, act);
        }
        PlanIndex {
            schema,
            plan,
            attrs,
            ancestry,
        }
    }

    /// The resolved info for a visible attribute of `class`.
    pub fn attr(&self, class: &ClassName, attr: &AttrName) -> Option<&AttrInfo<'a>> {
        self.attrs.get(class)?.get(attr)
    }

    /// The objectification affecting `class.attr`, if any (equivalent to
    /// [`SidePlan::objectify_for`] without the hierarchy walk).
    pub fn objectify_for(&self, class: &ClassName, attr: &AttrName) -> Option<&'a Objectify> {
        self.objectify_pos_for(class, attr).map(|(_, o)| o)
    }

    /// [`Self::objectify_for`] plus the objectification's position in
    /// `plan.objectifications` (the position keys virtual-object ids).
    pub fn objectify_pos_for(
        &self,
        class: &ClassName,
        attr: &AttrName,
    ) -> Option<(usize, &'a Objectify)> {
        match self.attr(class, attr)?.action {
            Some(AttrAction::Objectified(pos, o)) => Some((pos, o)),
            _ => None,
        }
    }

    /// The rename/convert plan for `class.attr`, if any (equivalent to
    /// [`SidePlan::attr_plan`] without the hierarchy walk).
    pub fn attr_plan(&self, class: &ClassName, attr: &AttrName) -> Option<&'a AttrPlan> {
        match self.attr(class, attr)?.action {
            Some(AttrAction::Planned(p)) => Some(p),
            _ => None,
        }
    }

    /// True when conforming leaves every object of `class` as it is: no
    /// visible attribute is objectified, and each planned one keeps its
    /// name and converts by [`Conversion::Id`]. The database
    /// transformation keeps such objects instead of copying them.
    pub fn conforms_by_identity(&self, class: &ClassName) -> bool {
        self.attrs.get(class).is_some_and(|attrs| {
            attrs.iter().all(|(name, info)| match info.action {
                None => true,
                Some(AttrAction::Planned(p)) => {
                    &p.new_name == name && p.conversion == Conversion::Id
                }
                Some(AttrAction::Objectified(..)) => false,
            })
        })
    }

    /// All visible attributes of `class`, fully resolved, in
    /// attribute-name order. Deterministic introspection surface for the
    /// static analyzer (`interop_analyze`), which inspects every resolved
    /// action without re-walking the hierarchy.
    pub fn class_attrs(&self, class: &ClassName) -> Vec<(&AttrName, &AttrInfo<'a>)> {
        let mut v: Vec<_> = self
            .attrs
            .get(class)
            .map(|m| m.iter().collect())
            .unwrap_or_default();
        v.sort_unstable_by_key(|(a, _)| *a);
        v
    }

    /// O(1) subclass test: is `sub` equal to or a descendant of `sup`?
    pub fn is_subclass(&self, sub: &ClassName, sup: &ClassName) -> bool {
        self.ancestry
            .get(sub)
            .is_some_and(|ancs| ancs.contains(sup))
    }

    /// The conformed name of `class.attr` (identity when unplanned).
    pub fn conformed_attr_name(&self, class: &ClassName, attr: &AttrName) -> AttrName {
        self.attr_plan(class, attr)
            .map(|p| p.new_name.clone())
            .unwrap_or_else(|| attr.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plans;
    use interop_model::{ClassDef, Type};
    use interop_spec::{ComparisonRule, Conversion, Decision, InterCond, PropEq, Side, Spec};

    fn setup() -> (Schema, Schema, SidePlan) {
        let local = Schema::new(
            "L",
            vec![
                ClassDef::new("Publication")
                    .attr("publisher", Type::Str)
                    .attr("ourprice", Type::Real),
                ClassDef::new("ScientificPubl")
                    .isa("Publication")
                    .attr("rating", Type::Range(1, 5)),
                ClassDef::new("RefereedPubl").isa("ScientificPubl"),
            ],
        )
        .unwrap();
        let remote = Schema::new(
            "R",
            vec![
                ClassDef::new("Publisher").attr("name", Type::Str),
                ClassDef::new("Item").attr("libprice", Type::Real),
                ClassDef::new("Proceedings")
                    .isa("Item")
                    .attr("rating", Type::Range(1, 10)),
            ],
        )
        .unwrap();
        let mut spec = Spec::new("L", "R");
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
        let (lp, _) = build_plans(&spec, &local, &remote).unwrap();
        (local, remote, lp)
    }

    #[test]
    fn index_agrees_with_naive_plan_lookups() {
        let (local, _, lp) = setup();
        let idx = PlanIndex::new(&local, &lp);
        for def in local.classes() {
            for adef in local.all_attrs(&def.name) {
                assert_eq!(
                    idx.attr_plan(&def.name, &adef.name),
                    lp.attr_plan(&local, &def.name, &adef.name),
                    "attr_plan mismatch on {}.{}",
                    def.name,
                    adef.name
                );
                assert_eq!(
                    idx.objectify_for(&def.name, &adef.name)
                        .map(|o| &o.virt_class),
                    lp.objectify_for(&local, &def.name, &adef.name)
                        .map(|o| &o.virt_class),
                    "objectify mismatch on {}.{}",
                    def.name,
                    adef.name
                );
            }
        }
    }

    #[test]
    fn inherited_attrs_flattened() {
        let (local, _, lp) = setup();
        let idx = PlanIndex::new(&local, &lp);
        let refereed = ClassName::new("RefereedPubl");
        // rating is declared on ScientificPubl; its plan is visible from
        // the grandchild without any walk.
        assert!(idx.attr_plan(&refereed, &AttrName::new("rating")).is_some());
        // publisher objectification covers subclasses too.
        assert!(idx
            .objectify_for(&refereed, &AttrName::new("publisher"))
            .is_some());
        assert!(idx.is_subclass(&refereed, &ClassName::new("Publication")));
        assert!(!idx.is_subclass(&ClassName::new("Publication"), &refereed));
    }
}
