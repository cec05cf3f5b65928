//! Property tests for [`Database::from_objects`], the whole-database
//! constructor, against the loop it replaces: [`Database::new`] then
//! [`Database::insert`] of each object in turn, stopping at the first
//! error. Inputs come in id order or shuffled, with repeated ids,
//! unknown classes, unknown attributes and values of the wrong type
//! mixed in at low rates. A success must be `Debug`-identical to the
//! loop's database (schema, objects, extents in order, next serial), a
//! failure the loop's first error, and objects passed as `Arc`s must be
//! kept, not copied.

use std::sync::Arc;

use interop_model::{ClassDef, ClassName, Database, Object, ObjectId, Schema, Type, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(
        "Shop",
        vec![
            ClassDef::new("Item")
                .attr("price", Type::Real)
                .attr("code", Type::Int),
            ClassDef::new("Book")
                .isa("Item")
                .attr("rating", Type::Range(1, 5)),
            ClassDef::new("Shelf").attr("label", Type::Str),
        ],
    )
    .unwrap()
}

/// Decodes one raw draw into an object. About one draw in forty names
/// an unknown class, one in forty an unknown attribute, and two to
/// three in forty carry an ill-typed value.
fn object((space, serial, class, attrs): (u8, u8, u8, u16)) -> Object {
    let id = ObjectId::new(1 + u32::from(space % 2), u64::from(serial % 48));
    let class = match class % 40 {
        0 => "Ghost",
        1..=15 => "Item",
        16..=31 => "Book",
        _ => "Shelf",
    };
    let mut obj = Object::new(id, ClassName::new(class));
    let roll = attrs % 40;
    match class {
        "Shelf" => obj.set("label", Value::str(format!("s{}", attrs % 7))),
        _ => {
            obj.set("price", Value::real(f64::from(attrs % 100)));
            if attrs % 3 == 0 {
                obj.set("code", Value::int(i64::from(attrs % 11)));
            }
            if class == "Book" {
                // Ratings 0 and 6 fall outside the 1..5 range.
                let rating = if roll < 2 { 6 * i64::from(roll) } else { 3 };
                obj.set("rating", Value::int(rating));
            }
        }
    }
    match roll {
        2 => obj.set("code", Value::str("not an int")),
        3 => obj.set("ghost", Value::int(1)),
        _ => {}
    }
    obj
}

/// The insert loop's result.
fn by_insert(objects: &[Object]) -> Result<Database, interop_model::ModelError> {
    let mut db = Database::new(schema(), 9);
    for obj in objects {
        db.insert(obj.clone())?;
    }
    Ok(db)
}

fn raw_objects() -> impl Strategy<Value = Vec<(u8, u8, u8, u16)>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>()), 0..60)
}

fn check(objects: Vec<Object>) -> Result<(), TestCaseError> {
    let expected = by_insert(&objects);
    let shared: Vec<Arc<Object>> = objects.into_iter().map(Arc::new).collect();
    let built = Database::from_objects(schema(), 9, shared.iter().cloned());
    match (&built, &expected) {
        (Ok(db), Ok(want)) => {
            prop_assert_eq!(format!("{db:?}"), format!("{want:?}"));
            let mut next = db.clone();
            let mut want_next = want.clone();
            prop_assert_eq!(next.fresh_id(), want_next.fresh_id());
            for obj in db.shared_objects() {
                prop_assert!(
                    shared.iter().any(|s| Arc::ptr_eq(s, obj)),
                    "object {} was copied",
                    obj.id
                );
            }
        }
        (Err(e), Err(want)) => prop_assert_eq!(e, want),
        _ => {
            return Err(TestCaseError::fail(format!(
                "from_objects {:?} but insert loop {:?}",
                built.as_ref().map(|d| d.len()),
                expected.as_ref().map(|d| d.len())
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any order, repeats included.
    #[test]
    fn whole_build_matches_the_insert_loop(raw in raw_objects()) {
        check(raw.into_iter().map(object).collect())?;
    }

    /// Ids already ascending and distinct: the path with no sort.
    #[test]
    fn whole_build_matches_the_insert_loop_on_ascending_ids(raw in raw_objects()) {
        let mut objects: Vec<Object> = raw.into_iter().map(object).collect();
        objects.sort_by_key(|o| o.id);
        objects.dedup_by_key(|o| o.id);
        check(objects)?;
    }
}

/// A fixed sweep that reaches every outcome: success, and each kind of
/// first error (so the properties above are not vacuous).
#[test]
fn sweep_reaches_every_outcome() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut seen = std::collections::BTreeSet::new();
    for round in 0..400 {
        let n = (next() % 24) as usize;
        let mut objects: Vec<Object> = (0..n)
            .map(|_| {
                let r = next();
                object((r as u8, (r >> 8) as u8, (r >> 16) as u8, (r >> 24) as u16))
            })
            .collect();
        if round % 2 == 0 {
            objects.sort_by_key(|o| o.id);
        }
        check(objects.clone()).unwrap();
        seen.insert(match by_insert(&objects) {
            Ok(_) => "ok",
            Err(interop_model::ModelError::DuplicateObject(_)) => "duplicate",
            Err(interop_model::ModelError::UnknownClass(_)) => "unknown class",
            Err(interop_model::ModelError::UnknownAttribute { .. }) => "unknown attribute",
            Err(interop_model::ModelError::TypeMismatch { .. }) => "type mismatch",
            Err(_) => "other",
        });
    }
    let all = [
        "duplicate",
        "ok",
        "type mismatch",
        "unknown attribute",
        "unknown class",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
}

#[test]
fn first_error_in_input_order_wins() {
    let item = |serial| Object::new(ObjectId::new(1, serial), ClassName::new("Item"));
    let ghost = Object::new(ObjectId::new(1, 9), ClassName::new("Ghost"));
    // A repeat before an unknown class, and after it.
    for objects in [
        vec![item(4), item(2), item(4), ghost.clone(), item(2)],
        vec![item(4), item(2), ghost.clone(), item(4), item(2)],
        vec![item(5), item(3), item(3), item(5)],
    ] {
        assert_eq!(
            Database::from_objects(schema(), 9, objects.clone()).map(|d| d.len()),
            by_insert(&objects).map(|d| d.len())
        );
    }
}
