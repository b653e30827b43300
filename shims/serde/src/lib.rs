//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture this shim uses a concrete
//! [`Value`] tree as the data model: `Serialize` renders into a `Value`,
//! `Deserialize` reads back out of one, and `serde_json` maps `Value`
//! to/from JSON text. The `#[derive(Serialize, Deserialize)]` macros are
//! provided by the companion `serde_derive` proc-macro crate and generate the
//! same externally-tagged representation real serde would for the shapes this
//! workspace uses (named structs, newtype structs, enums with unit and struct
//! variants). `Deserialize` is implemented only for what the workspace
//! decodes: unsigned integers, `f64`, `String` and `Vec`.

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model all (de)serialization goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Signed integers (and any integer parsed from JSON that fits in i64).
    I64(i64),
    /// Unsigned integers above `i64::MAX`.
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Key-value pairs in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

fn type_err<T>(expected: &str, got: &Value) -> Result<T, DeError> {
    Err(DeError(format!(
        "expected {expected}, got {}",
        got.type_name()
    )))
}

/// Renders `self` into the [`Value`] data model.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Reconstructs `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Looks up a field of an object value; used by derived impls.
pub fn object_field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, DeError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))
}

// ---------------------------------------------------------------- primitives

macro_rules! impl_integer {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                match i64::try_from(*self) {
                    Ok(n) => Value::I64(n),
                    Err(_) => Value::U64(*self as u64),
                }
            }
        }
    )*};
}

impl_integer!(i64, u16, u32, u64, usize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n: u64 = match *v {
                    Value::I64(n) => u64::try_from(n)
                        .map_err(|_| DeError(format!("integer {n} out of range")))?,
                    Value::U64(n) => n,
                    ref other => return type_err("integer", other),
                };
                <$t>::try_from(n).map_err(|_| DeError(format!("integer {n} out of range")))
            }
        }
    )*};
}

impl_unsigned!(u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match *v {
            Value::F64(f) => Ok(f),
            Value::I64(n) => Ok(n as f64),
            Value::U64(n) => Ok(n as f64),
            // The writer renders a non-finite float as `null`.
            Value::Null => Ok(f64::NAN),
            ref other => type_err("number", other),
        }
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

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => type_err("string", other),
        }
    }
}

// ---------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => type_err("array", other),
        }
    }
}

/// Keys render through `Display`, as serde_json stringifies integer keys.
impl<K: std::fmt::Display, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(u64::from_value(&u64::MAX.to_value()).unwrap(), u64::MAX);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!((-3i64).to_value(), Value::I64(-3));
        assert_eq!(true.to_value(), Value::Bool(true));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Some(7u32).to_value(), Value::I64(7));
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(String::from_value(&Value::I64(1)).is_err());
        assert!(u16::from_value(&Value::I64(70_000)).is_err());
        assert!(u64::from_value(&Value::I64(-1)).is_err());
        assert!(u64::from_value(&Value::F64(1.0)).is_err());
        assert!(object_field(&[], "missing").is_err());
    }
}
