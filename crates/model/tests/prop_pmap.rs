//! Property tests for the persistent map ([`interop_model::PMap`]):
//! random sequences of inserts, removes, `get_mut` updates and clones,
//! with later writes landing on either side of a clone, run against a
//! `BTreeMap` oracle per version. After every step the written version
//! must match its oracle in contents, key order, length and `Debug`
//! text and pass the structural self-check, and every other version
//! must still equal its own oracle (persistence: a write to one clone
//! is never visible through another).

use std::collections::BTreeMap;

use interop_model::PMap;
use proptest::prelude::*;

/// One step of a sequence, decoded from a raw `(kind, key, value)`.
#[derive(Clone, Copy, Debug)]
enum Step {
    Insert(u16, u32),
    Remove(u16),
    Update(u16, u32),
    /// Clone the current version; the clone joins the version list.
    Clone,
    /// Make another version the one later steps write to.
    Switch(usize),
}

/// Versions kept at once (older clones are retired beyond this, so the
/// per-step persistence check stays cheap).
const MAX_VERSIONS: usize = 8;

/// Decodes a raw step. `remove_heavy` turns most writes into removals,
/// so a sequence drains the map to empty and refills it.
fn decode((kind, key, value): (u8, u16, u32), remove_heavy: bool) -> Step {
    let kind = if remove_heavy { kind % 24 } else { kind % 16 };
    match kind {
        0..=5 => Step::Insert(key, value),
        6..=8 => Step::Remove(key),
        9..=11 => Step::Update(key, value),
        12 => Step::Clone,
        13..=15 => Step::Switch(value as usize),
        _ => Step::Remove(key),
    }
}

fn raw_steps(keys: u16) -> impl Strategy<Value = Vec<(u8, u16, u32)>> {
    prop::collection::vec((0u8..=255, 0u16..keys, 0u32..1_000_000), 0..700)
}

/// Contents, order, length, `Debug` text and shape of one version.
fn check_version(map: &PMap<u16, u32>, oracle: &BTreeMap<u16, u32>) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.len(), oracle.len());
    prop_assert_eq!(map.is_empty(), oracle.is_empty());
    prop_assert!(map.iter().eq(oracle.iter()), "contents or order differ");
    prop_assert_eq!(map.iter().len(), oracle.len());
    prop_assert_eq!(format!("{map:?}"), format!("{oracle:?}"));
    map.check_structure().map_err(TestCaseError::fail)
}

fn run(raw: Vec<(u8, u16, u32)>, remove_heavy: bool) -> Result<(), TestCaseError> {
    let mut versions: Vec<(PMap<u16, u32>, BTreeMap<u16, u32>)> =
        vec![(PMap::new(), BTreeMap::new())];
    let mut cur = 0;
    let mut retire = 0;
    for raw_step in raw {
        match decode(raw_step, remove_heavy) {
            Step::Insert(k, v) => {
                let (map, oracle) = &mut versions[cur];
                prop_assert_eq!(map.insert(k, v), oracle.insert(k, v));
            }
            Step::Remove(k) => {
                let (map, oracle) = &mut versions[cur];
                prop_assert_eq!(map.remove(&k), oracle.remove(&k));
                prop_assert_eq!(map.get(&k), None);
            }
            Step::Update(k, v) => {
                let (map, oracle) = &mut versions[cur];
                match (map.get_mut(&k), oracle.get_mut(&k)) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(*a, *b);
                        *a = v;
                        *b = v;
                    }
                    (None, None) => {}
                    (a, b) => {
                        return Err(TestCaseError::fail(format!(
                            "get_mut({k}): map {a:?}, oracle {b:?}"
                        )))
                    }
                }
                prop_assert_eq!(map.get(&k), oracle.get(&k));
            }
            Step::Clone => {
                let copy = versions[cur].clone();
                prop_assert!(copy.0.ptr_eq(&versions[cur].0), "a clone shares the tree");
                if versions.len() < MAX_VERSIONS {
                    versions.push(copy);
                } else {
                    // Retire an old version, never the current one.
                    retire = (retire + 1) % MAX_VERSIONS;
                    if retire == cur {
                        retire = (retire + 1) % MAX_VERSIONS;
                    }
                    versions[retire] = copy;
                }
            }
            Step::Switch(i) => cur = i % versions.len(),
        }
        check_version(&versions[cur].0, &versions[cur].1)?;
        for (map, oracle) in &versions {
            prop_assert_eq!(map.len(), oracle.len());
            prop_assert!(map.iter().eq(oracle.iter()), "an earlier version changed");
        }
    }
    for (map, oracle) in &versions {
        check_version(map, oracle)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_sequences_match_a_btreemap_in_every_version(raw in raw_steps(400)) {
        run(raw, false)?;
    }

    #[test]
    fn remove_heavy_sequences_empty_the_map_and_refill_it(raw in raw_steps(120)) {
        run(raw, true)?;
    }
}

/// A deterministic deep tree: grow well past three levels, clone, then
/// drain each side in a different order down to empty.
#[test]
fn draining_both_sides_of_a_clone_keeps_each_intact() {
    let oracle: BTreeMap<u32, u32> = (0..5_000).map(|k| (k, k)).collect();
    let mut a: PMap<u32, u32> = oracle.clone().into_iter().collect();
    let untouched = a.clone();
    let mut b = a.clone();
    for k in (0..5_000).step_by(2) {
        a.remove(&k);
    }
    for k in (0..5_000).rev() {
        if k % 3 != 0 {
            b.remove(&k);
        }
    }
    a.check_structure().unwrap();
    b.check_structure().unwrap();
    assert!(a.keys().copied().eq((1..5_000).step_by(2)));
    assert!(b.keys().copied().eq((0..5_000).step_by(3)));
    for k in 0..5_000 {
        a.remove(&k);
        b.remove(&k);
    }
    assert!(a.is_empty() && b.is_empty());
    a.check_structure().unwrap();
    b.check_structure().unwrap();
    untouched.check_structure().unwrap();
    assert_eq!(format!("{untouched:?}"), format!("{oracle:?}"));
}
