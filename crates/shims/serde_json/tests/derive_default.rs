//! The derive shim's `#[serde(default)]` field attribute, end to end
//! through JSON text.

use serde::{Deserialize, Serialize};

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Counters {
    name: String,
    #[serde(default)]
    trips: u64,
    /// Doc comments are attributes too; they must not trip the shim.
    #[serde(default)]
    tags: Vec<String>,
}

#[test]
fn defaulted_fields_load_from_json_that_lacks_them() {
    let c: Counters = serde_json::from_str(r#"{"name":"a"}"#).unwrap();
    assert_eq!(
        c,
        Counters {
            name: "a".into(),
            ..Counters::default()
        }
    );
}

#[test]
fn present_defaulted_fields_still_load() {
    let c: Counters = serde_json::from_str(r#"{"name":"a","trips":3,"tags":["x"]}"#).unwrap();
    assert_eq!(c.trips, 3);
    assert_eq!(c.tags, ["x"]);
}

#[test]
fn serialization_is_unchanged_by_default() {
    let c = Counters {
        name: "a".into(),
        trips: 0,
        tags: Vec::new(),
    };
    assert_eq!(
        serde_json::to_string(&c).unwrap(),
        r#"{"name":"a","trips":0.0,"tags":[]}"#
    );
}

#[test]
fn undefaulted_fields_are_still_required() {
    let err = serde_json::from_str::<Counters>(r#"{"trips":1}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `name`"), "{err}");
    // A defaulted field does not turn a non-object into a default.
    assert!(serde_json::from_str::<Counters>("[]").is_err());
}
