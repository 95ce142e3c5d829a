//! Encode/decode traits between Rust values and [`Json`] trees.
//!
//! Decoding reports failures as plain strings (the callers wrap them in
//! their own error types); it is strict about numeric kinds so a float
//! smuggled into a `usize` field is a decode error, not a truncation.

use std::sync::Arc;

use crate::parse::JsonError;
use crate::value::Json;

/// Types that encode themselves as a JSON value.
pub trait ToJson {
    /// The JSON encoding of `self`.
    fn to_json(&self) -> Json;
}

/// Types that decode themselves from a JSON value.
pub trait FromJson: Sized {
    /// Decodes a value of `Self` from `v`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first mismatch between `v` and
    /// the expected layout.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Fetches a required object member.
///
/// # Errors
///
/// Returns an error naming the key if `v` is not an object or lacks it.
pub(crate) fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

impl Json {
    /// Decodes a required object member into `T`.
    ///
    /// # Errors
    ///
    /// Returns an error naming the key on a missing member or a decode
    /// failure inside it.
    pub fn decode_field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        T::from_json(field(self, key)?).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// Decodes an optional object member into `T`: an absent or `null`
    /// member yields `absent()`. This is the one place the workspace's
    /// "a default is invisible on the wire" rule is decoded (see
    /// [`json_record!`](crate::json_record)).
    ///
    /// # Errors
    ///
    /// Returns an error naming the key on a decode failure inside a
    /// present member.
    pub fn decode_field_or<T: FromJson>(
        &self,
        key: &str,
        absent: impl FnOnce() -> T,
    ) -> Result<T, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(absent()),
            Some(v) => T::from_json(v).map_err(|e| format!("field {key:?}: {e}")),
        }
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Json, String> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| format!("expected bool, got {v}"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, String> {
        v.as_str().map(str::to_string).ok_or_else(|| format!("expected string, got {v}"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| format!("expected number, got {v}"))
    }
}

macro_rules! unsigned_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::from(u64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, String> {
                let u = v.as_u64().ok_or_else(|| format!("expected unsigned integer, got {v}"))?;
                <$t>::try_from(u).map_err(|_| format!("{u} out of range for {}", stringify!($t)))
            }
        }
    )*};
}
unsigned_json!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::from(*self as u64)
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<usize, String> {
        let u = v.as_u64().ok_or_else(|| format!("expected unsigned integer, got {v}"))?;
        usize::try_from(u).map_err(|_| format!("{u} out of range for usize"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, String> {
        let items = v.as_array().ok_or_else(|| format!("expected array, got {v}"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// A shared value encodes as what it points at (`Arc<str>` as a string,
/// `Arc<[T]>` as an array), so sharing never shows on the wire.
impl<T: ToJson + ?Sized> ToJson for Arc<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl FromJson for Arc<str> {
    fn from_json(v: &Json) -> Result<Arc<str>, String> {
        v.as_str().map(Arc::from).ok_or_else(|| format!("expected string, got {v}"))
    }
}

impl<T: FromJson> FromJson for Arc<[T]> {
    fn from_json(v: &Json) -> Result<Arc<[T]>, String> {
        Vec::<T>::from_json(v).map(Arc::from)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(t) => t.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, String> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<(A, B), String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(format!("expected 2-element array, got {v}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_vecs_and_pairs_roundtrip() {
        let v: Vec<Option<(u32, u32)>> = vec![Some((1, 2)), None];
        let j = v.to_json();
        assert_eq!(j.to_string(), "[[1,2],null]");
        assert_eq!(Vec::<Option<(u32, u32)>>::from_json(&j).unwrap(), v);
    }

    #[test]
    fn shared_values_encode_as_their_contents() {
        let pairs: Arc<[(u32, u32)]> = Arc::from(vec![(0, 1), (1, 0)]);
        assert_eq!(pairs.to_json().to_string(), pairs.to_vec().to_json().to_string());
        assert_eq!(Arc::<[(u32, u32)]>::from_json(&pairs.to_json()).unwrap(), pairs);
        let tag: Arc<str> = Arc::from("lce.cp");
        assert_eq!(tag.to_json(), "lce.cp".to_string().to_json());
        assert_eq!(Arc::<str>::from_json(&tag.to_json()).unwrap(), tag);
    }

    #[test]
    fn numeric_kind_is_strict() {
        assert!(usize::from_json(&Json::from(1.5f64)).is_err());
        assert!(u32::from_json(&Json::from(u64::MAX)).is_err());
        assert!(f64::from_json(&Json::from(3u64)).is_ok());
    }
}
