//! Minimal offline stand-in for `serde`.
//!
//! The real serde could not be vendored into the evaluation container,
//! so this shim provides the subset the workspace relies on: a
//! `Serialize`/`Deserialize` trait pair over an owned JSON-like
//! [`Value`] tree, plus derive macros (re-exported from
//! `serde-derive-shim`) for plain structs, `#[serde(transparent)]`
//! newtypes and `#[serde(default)]` fields. `serde_json` (also shimmed)
//! renders [`Value`] to and from JSON text. Swap the workspace path
//! dependency for the real crates to drop both shims at once.

/// The derive macros. Any `serde` attribute they do not implement is a
/// compile error, never silently ignored:
///
/// ```compile_fail
/// #[derive(serde::Deserialize)]
/// struct Renamed {
///     #[serde(rename = "b")]
///     a: u32,
/// }
/// ```
pub use serde_derive_shim::{Deserialize, Serialize};

use std::fmt;

/// An owned JSON-like value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Arr(Vec<Value>),
    /// JSON object with preserved key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up an object field, erroring when `self` is not an object
    /// or the key is missing.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.opt_field(key)?
            .ok_or_else(|| Error::custom(format!("missing field `{key}`")))
    }

    /// Looks up an object field that may be absent (`Ok(None)`),
    /// erroring only when `self` is not an object.
    pub fn opt_field(&self, key: &str) -> Result<Option<&Value>, Error> {
        match self {
            Value::Obj(entries) => Ok(entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)),
            _ => Err(Error::custom(format!(
                "expected object while reading field `{key}`"
            ))),
        }
    }

    /// Looks up an array element by index.
    pub fn index(&self, i: usize) -> Result<&Value, Error> {
        match self {
            Value::Arr(items) => items
                .get(i)
                .ok_or_else(|| Error::custom(format!("missing array element {i}"))),
            _ => Err(Error::custom("expected array")),
        }
    }
}

/// Serialization/deserialization failure.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    /// Creates an error from any displayable message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Self(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

/// Converts a value into the [`Value`] tree.
pub trait Serialize {
    /// Builds the value tree.
    fn to_value(&self) -> Value;
}

/// Reconstructs a value from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses the value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(n) => Ok(*n as $t),
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_num!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected boolean")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
