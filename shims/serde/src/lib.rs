//! Offline stand-in for `serde` (serialization only).
//!
//! The build environment has no crates-registry access and no proc-macro
//! crates, so this shim replaces the `Serialize` derive with a value-tree
//! design: types convert themselves into a [`Value`] and `serde_json`
//! renders that tree. Structs get their impl from the declarative
//! [`impl_serialize!`] macro instead of `#[derive(Serialize)]`.
//!
//! Object keys are [`Key`]s, copy-on-write strings: field names and
//! other fixed tags are borrowed `&'static str` literals, so lowering a
//! struct allocates nothing for its keys; only keys built from data (node
//! names, labels, `format!` keys) are owned.
//!
//! A tree that already exists renders without being copied:
//! [`Serialize::as_value`] hands a borrowed view of a [`Value`] to the
//! renderer, which falls back to [`Serialize::to_value`] for every other
//! type.
//!
//! Only the serialization half exists here; `serde_json::from_str` parses
//! JSON text back into a [`Value`] for tools that re-read reports.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// An object key: a borrowed literal for field names and fixed tags, an
/// owned string for keys built from data. Compares with `&str` directly.
pub type Key = Cow<'static, str>;

/// A JSON-shaped value tree: the intermediate representation every
/// [`Serialize`] type lowers itself into.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion-ordered so emitted documents are stable.
    Object(Vec<(Key, Value)>),
}

/// A type that can lower itself into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into the value tree that will be rendered.
    fn to_value(&self) -> Value;

    /// `self` as an already-built tree, if it is one. Renderers use this
    /// to borrow a [`Value`] instead of cloning it through
    /// [`to_value`](Serialize::to_value); only `Value` (and references
    /// to it) return `Some`.
    fn as_value(&self) -> Option<&Value> {
        None
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Option<&Value> {
        Some(self)
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

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

macro_rules! serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
    )*};
}
serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
    )*};
}
serialize_int!(i8, i16, i32, i64, isize);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Option<&Value> {
        (**self).as_value()
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
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (Key::Owned(k.to_string()), v.to_value()))
                .collect(),
        )
    }
}

/// Hash maps serialize with their keys sorted (by rendered key string), so
/// emitted documents are byte-stable run to run regardless of hasher seed
/// or insertion order.
impl<K: ToString, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(Key, Value)> = self
            .iter()
            .map(|(k, v)| (Key::Owned(k.to_string()), v.to_value()))
            .collect();
        fields.sort_by(|(a, _), (b, _)| a.cmp(b));
        Value::Object(fields)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

/// Implements [`Serialize`] for a struct by listing its fields — the
/// offline replacement for `#[derive(Serialize)]`:
///
/// ```
/// struct Point { x: u32, y: u32 }
/// serde::impl_serialize!(Point { x, y });
/// # let _ = Point { x: 1, y: 2 };
/// ```
#[macro_export]
macro_rules! impl_serialize {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Serialize for $name {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::Object(vec![
                    $(($crate::Key::Borrowed(stringify!($field)),
                       $crate::Serialize::to_value(&self.$field)),)*
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_lower_to_expected_nodes() {
        assert_eq!(5u32.to_value(), Value::U64(5));
        assert_eq!((-3i64).to_value(), Value::I64(-3));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(None::<u8>.to_value(), Value::Null);
        assert_eq!(
            vec![1u8, 2].to_value(),
            Value::Array(vec![Value::U64(1), Value::U64(2)])
        );
    }

    #[test]
    fn hash_maps_serialize_with_sorted_keys() {
        let mut m = std::collections::HashMap::new();
        m.insert("zeta", 1u32);
        m.insert("alpha", 2u32);
        m.insert("mid", 3u32);
        assert_eq!(
            m.to_value(),
            Value::Object(vec![
                ("alpha".into(), Value::U64(2)),
                ("mid".into(), Value::U64(3)),
                ("zeta".into(), Value::U64(1)),
            ])
        );
    }

    #[test]
    fn only_values_lend_themselves() {
        let v = Value::Array(vec![Value::U64(1)]);
        assert!(std::ptr::eq(v.as_value().unwrap(), &v));
        assert!(std::ptr::eq((&&v).as_value().unwrap(), &v));
        assert!(5u32.as_value().is_none());
        assert!(vec![v.clone()].as_value().is_none());
    }

    #[test]
    fn impl_serialize_macro_emits_object() {
        struct P {
            x: u32,
            name: String,
        }
        impl_serialize!(P { x, name });
        let v = P {
            x: 7,
            name: "n".into(),
        }
        .to_value();
        assert_eq!(
            v,
            Value::Object(vec![
                ("x".into(), Value::U64(7)),
                ("name".into(), Value::Str("n".into())),
            ])
        );
        let Value::Object(fields) = v else {
            unreachable!()
        };
        assert!(
            fields.iter().all(|(k, _)| matches!(k, Key::Borrowed(_))),
            "field names are borrowed literals"
        );
    }
}
