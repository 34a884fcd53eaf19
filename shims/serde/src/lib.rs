//! Offline stand-in for `serde`.
//!
//! crates.io is unreachable in this build environment, so this crate
//! provides the minimal surface the workspace uses: a [`Serialize`]
//! trait producing a JSON-like [`Value`] tree (rendered by the sibling
//! `serde_json` shim) and a re-export of the shim derive macro. The
//! `Value` encoding follows serde_json's conventions (newtype structs
//! transparent, unit enum variants as strings, externally-tagged data
//! variants) so regenerated result files keep their existing shape.

pub use serde_derive::Serialize;

/// A JSON value tree — the target of [`Serialize::to_value`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so u64 > i64::MAX round-trips).
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object, preserving insertion order like serde_json's
    /// `preserve_order` feature (field declaration order here).
    Map(Vec<(String, Value)>),
}

/// Types that can turn themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a JSON value tree.
    fn to_value(&self) -> Value;
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
    )*};
}
macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}
impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! ser_tuple {
    ($($idx:tt $t:ident),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
    };
}
ser_tuple!(0 A);
ser_tuple!(0 A, 1 B);
ser_tuple!(0 A, 1 B, 2 C);
ser_tuple!(0 A, 1 B, 2 C, 3 D);

/// JSON object keys must be strings; serializable keys are rendered via
/// their `Value` form (matching serde_json, which stringifies numeric
/// map keys).
fn key_string(v: Value) -> String {
    match v {
        Value::Str(s) => s,
        Value::UInt(u) => u.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Float(f) => f.to_string(),
        other => format!("{other:?}"),
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (key_string(k.to_value()), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // sort for deterministic output (HashMap order is unstable)
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_string(k.to_value()), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl Serialize for std::net::Ipv4Addr {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("secs".to_string(), Value::UInt(self.as_secs())),
            (
                "nanos".to_string(),
                Value::UInt(u64::from(self.subsec_nanos())),
            ),
        ])
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
