//! Property tests for the persistent map ([`interop_model::PMap`]):
//! random sequences of inserts, removes, `get_mut` updates and clones,
//! with later writes landing on either side of a clone, run against a
//! `BTreeMap` oracle per version. After every step the written version
//! must match its oracle in contents, key order, length and `Debug`
//! text and pass the structural self-check, and every other version
//! must still equal its own oracle (persistence: a write to one clone
//! is never visible through another). Maps built whole
//! ([`PMap::from_sorted`], `collect`) must equal the map an insert loop
//! builds, pass the same shape check, and stay equal under the same
//! random writes.

use std::collections::BTreeMap;

use interop_model::{NotAscending, PMap, R64};
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
    run_from(PMap::new(), BTreeMap::new(), raw, remove_heavy)
}

/// [`run`] from a given first version and its oracle.
fn run_from(
    map: PMap<u16, u32>,
    oracle: BTreeMap<u16, u32>,
    raw: Vec<(u8, u16, u32)>,
    remove_heavy: bool,
) -> Result<(), TestCaseError> {
    check_version(&map, &oracle)?;
    let mut versions: Vec<(PMap<u16, u32>, BTreeMap<u16, u32>)> = vec![(map, oracle)];
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

/// The map an insert loop builds from `entries`.
fn inserted<K: Ord + Clone, V: Clone>(entries: impl IntoIterator<Item = (K, V)>) -> PMap<K, V> {
    let mut map = PMap::new();
    for (k, v) in entries {
        map.insert(k, v);
    }
    map
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

    /// A map built whole takes the same writes, on it and on its
    /// clones, as the insert-built map's oracle.
    #[test]
    fn whole_built_maps_stay_equal_under_random_writes(
        len in 0usize..400,
        raw in raw_steps(400),
        remove_heavy in any::<bool>(),
    ) {
        let oracle: BTreeMap<u16, u32> = (0..len as u16).map(|k| (k, u32::from(k) * 3)).collect();
        let map = PMap::from_sorted(oracle.clone()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        run_from(map, oracle, raw, remove_heavy)?;
    }

    /// `from_sorted` accepts exactly the strictly ascending inputs and
    /// names the first entry out of order; `collect` takes any order and
    /// keeps the value of the last of equal keys, as an insert loop does.
    #[test]
    fn unsorted_or_repeated_input_is_refused(keys in prop::collection::vec(0u16..64, 0..80)) {
        let entries: Vec<(u16, usize)> = keys.iter().copied().zip(0..).collect();
        let first_bad = keys.windows(2).position(|w| w[0] >= w[1]).map(|i| i + 1);
        match PMap::from_sorted(entries.clone()) {
            Ok(map) => {
                prop_assert_eq!(first_bad, None);
                prop_assert!(map.iter().eq(inserted(entries.clone()).iter()));
            }
            Err(NotAscending { index }) => prop_assert_eq!(first_bad, Some(index)),
        }
        let collected: PMap<u16, usize> = entries.iter().copied().collect();
        let oracle: BTreeMap<u16, usize> = entries.iter().copied().collect();
        check_version_of(&collected, &oracle)?;
    }
}

/// [`check_version`] for any key and value types.
fn check_version_of<K, V>(map: &PMap<K, V>, oracle: &BTreeMap<K, V>) -> Result<(), TestCaseError>
where
    K: Ord + std::fmt::Debug,
    V: PartialEq + std::fmt::Debug,
{
    prop_assert_eq!(map.len(), oracle.len());
    prop_assert!(map.iter().eq(oracle.iter()), "contents or order differ");
    prop_assert_eq!(format!("{map:?}"), format!("{oracle:?}"));
    map.check_structure().map_err(TestCaseError::fail)
}

/// Every size up to 300, and the sizes on either side of the points
/// where a whole build gains a level (12, 144 and 1728 entries are the
/// fewest that take two, three and four levels), equals the
/// insert-built map in contents, order and `Debug` text and passes the
/// shape check; so does every clone written to afterwards.
#[test]
fn whole_builds_equal_insert_builds_at_every_size() {
    let sizes = (0..=300).chain([1_727, 1_728, 1_729, 5_000]);
    for n in sizes {
        let entries: Vec<(u32, u32)> = (0..n).map(|k| (k * 2, k)).collect();
        let oracle: BTreeMap<u32, u32> = entries.iter().copied().collect();
        let by_insert = inserted(entries.clone());
        let whole = PMap::from_sorted(entries.clone()).unwrap();
        let collected: PMap<u32, u32> = entries.iter().rev().copied().collect();
        for map in [&by_insert, &whole, &collected] {
            map.check_structure()
                .unwrap_or_else(|e| panic!("size {n}: {e}"));
            assert!(map.iter().eq(oracle.iter()), "size {n}");
            assert_eq!(format!("{map:?}"), format!("{oracle:?}"), "size {n}");
        }
        // Writes on a clone and on the original: an insert past the end
        // (into a full rightmost leaf), a removal at the front, an update
        // in the middle.
        let mut a = whole.clone();
        let mut b = whole.clone();
        let mut oracle_a = oracle.clone();
        let mut oracle_b = oracle.clone();
        a.insert(2 * n + 1, 7);
        oracle_a.insert(2 * n + 1, 7);
        b.insert(1, 9);
        oracle_b.insert(1, 9);
        assert_eq!(a.remove(&0), oracle_a.remove(&0), "size {n}");
        if let (Some(x), Some(y)) = (b.get_mut(&n), oracle_b.get_mut(&n)) {
            *x += 1;
            *y += 1;
        }
        for (map, oracle) in [(&a, &oracle_a), (&b, &oracle_b), (&whole, &oracle)] {
            map.check_structure()
                .unwrap_or_else(|e| panic!("size {n} after writes: {e}"));
            assert!(map.iter().eq(oracle.iter()), "size {n} after writes");
        }
    }
    assert!(PMap::from_sorted([(1, 1), (1, 2)]).is_err());
    assert_eq!(
        PMap::from_sorted([(1, 1), (3, 2), (2, 3)]).map(|m| m.len()),
        Err(NotAscending { index: 2 })
    );
}

/// Of keys that compare equal but print apart, `collect` keeps the last
/// entry whole, key and value, as std's `BTreeMap` does; an insert loop
/// keeps the first key with the last value.
#[test]
fn collect_keeps_the_last_of_equal_keys_whole() {
    let entries = [(R64::new(-0.0), 1), (R64::new(1.0), 2), (R64::new(0.0), 3)];
    let collected: PMap<R64, u32> = entries.into_iter().collect();
    let std_map: BTreeMap<R64, u32> = entries.into_iter().collect();
    assert_eq!(format!("{collected:?}"), format!("{std_map:?}"));
    assert_eq!(format!("{collected:?}"), "{0: 3, 1: 2}");
    let by_insert = inserted(entries);
    assert_eq!(format!("{by_insert:?}"), "{-0: 3, 1: 2}");
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
