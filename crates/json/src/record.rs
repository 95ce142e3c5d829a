//! `json_record!` / `json_enum!`: one field list per wire type.
//!
//! A record's wire layout is its field list, written once; the macros
//! emit the [`ToJson`](crate::ToJson) / [`FromJson`](crate::FromJson)
//! pair from it, so the two directions cannot drift. They expand to the
//! plain `Json::obj().with(key, field.to_json())` chain and
//! `decode_field` calls a hand-written codec would contain — no field
//! table, no `dyn`, no allocation beyond the object being built.

/// Implements `ToJson` and `FromJson` for a struct from one field list:
/// `json_record!(Type ["tag_key" = tag]? { field, field [rule], .. })`.
///
/// The rules, stated here and nowhere else:
///
/// - Members are emitted in list order under the field's own name, after
///   the optional constant tag member (`["response" = "stats"]`). The
///   tag is written, never checked: whoever dispatched on it already
///   read it.
/// - A plain field is required: decoding fails with `missing field "x"`
///   when it is absent.
/// - `[absent = EXPR]` makes the member optional on decode: absent or
///   `null` yields `EXPR` (see [`Json::decode_field_or`](crate::Json::decode_field_or)).
///   It is still always written.
/// - `[absent = EXPR, skip_if = PRED]` additionally omits the member on
///   encode when `PRED(&field)` holds. This is the only elision
///   mechanism, and `PRED` must accept exactly the values `EXPR` stands
///   for, so that omitted-then-defaulted is the identity.
/// - `[skip_none]` is `[absent = None, skip_if = Option::is_none]`: an
///   `Option` member that is omitted (not `null`) when unset.
/// - Every decode failure inside a member is prefixed `field "x":`.
/// - Decoding anything but a JSON object is an error even when every
///   member is optional; unknown members are ignored.
///
/// ```
/// use overlap_json::{json_record, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Knobs { chunk: usize, window: usize, budget: Option<f64> }
/// json_record!(Knobs {
///     chunk,
///     window [absent = 1, skip_if = |w: &usize| *w <= 1],
///     budget [skip_none],
/// });
///
/// let k = Knobs { chunk: 2, window: 1, budget: None };
/// assert_eq!(k.to_json().to_string(), r#"{"chunk":2}"#);
/// assert_eq!(Knobs::from_json(&k.to_json()), Ok(k));
/// let err = Knobs::from_json(&Json::parse(r#"{"chunk":2,"window":1.5}"#).unwrap());
/// assert!(err.unwrap_err().starts_with("field \"window\":"));
/// ```
///
/// Three further forms share the same field rules:
///
/// - `json_record!(encode Type { .. })` implements `ToJson` only, for
///   types nothing ever decodes (`skip_if` then needs no `absent`).
/// - `json_record!(fields ["tag_key" = tag]? { a, b [..] })` is an
///   *expression*: the object built from the local bindings `a`, `b`
///   (references, as bound by `match self`).
/// - `json_record!(from v => Path::Variant { a, b [..] })` is an
///   *expression*: the value built by decoding each field out of the
///   object `v`, propagating errors with `?`.
///
/// The two expression forms are what hand-written enum codecs (tag
/// dispatch the record shape cannot express) use for their payloads.
#[macro_export]
macro_rules! json_record {
    (encode $ty:ty $([$tag_key:literal = $tag:expr])? {
        $($field:ident $([$($rule:tt)+])?),+ $(,)?
    }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let Self { $($field,)+ .. } = self;
                $crate::json_record!(fields $([$tag_key = $tag])? { $($field $([$($rule)+])?),+ })
            }
        }
    };
    (fields $([$tag_key:literal = $tag:expr])? {
        $($field:ident $([$($rule:tt)+])?),+ $(,)?
    }) => {{
        use $crate::ToJson as _;
        let object = $crate::Json::obj()$(.with($tag_key, $tag))?;
        $(let object = $crate::json_record!(@put object, $field $(, $($rule)+)?);)+
        object
    }};
    (from $v:ident => $($ctor:ident)::+ { $($field:ident $([$($rule:tt)+])?),+ $(,)? }) => {
        $($ctor)::+ { $($field: $crate::json_record!(@get $v, $field $(, $($rule)+)?)),+ }
    };
    (@put $object:ident, $field:ident $(, absent = $absent:expr)?) => {
        $object.with(stringify!($field), $field.to_json())
    };
    (@put $object:ident, $field:ident, $(absent = $absent:expr,)? skip_if = $skip:expr) => {
        if $skip($field) {
            $object
        } else {
            $object.with(stringify!($field), $field.to_json())
        }
    };
    (@put $object:ident, $field:ident, skip_none) => {
        $crate::json_record!(@put $object, $field, skip_if = Option::is_none)
    };
    (@get $v:ident, $field:ident) => {
        $v.decode_field(stringify!($field))?
    };
    (@get $v:ident, $field:ident, absent = $absent:expr $(, skip_if = $skip:expr)?) => {
        $v.decode_field_or(stringify!($field), || $absent)?
    };
    (@get $v:ident, $field:ident, skip_none) => {
        $crate::json_record!(@get $v, $field, absent = None)
    };
    ($ty:ty $([$tag_key:literal = $tag:expr])? {
        $($field:ident $([$($rule:tt)+])?),+ $(,)?
    }) => {
        $crate::json_record!(encode $ty $([$tag_key = $tag])? { $($field $([$($rule)+])?),+ });
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, String> {
                if !matches!(v, $crate::Json::Obj(_)) {
                    return Err(format!("expected {} object, got {v}", stringify!($ty)));
                }
                Ok($crate::json_record!(from v => Self { $($field $([$($rule)+])?),+ }))
            }
        }
    };
}

/// Implements `ToJson` and `FromJson` for a unit-only enum as the bare
/// string listed for each variant; `json_enum!(encode Type { .. })`
/// implements `ToJson` only. Decoding any other value fails with
/// `expected Type, got <value>`.
///
/// ```
/// use overlap_json::{json_enum, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// enum Ring { Uni, Bidi }
/// json_enum!(Ring { Uni = "uni", Bidi = "bidi" });
///
/// assert_eq!(Ring::Bidi.to_json(), Json::from("bidi"));
/// assert_eq!(Ring::from_json(&Json::from("uni")), Ok(Ring::Uni));
/// assert_eq!(Ring::from_json(&Json::from("Uni")).unwrap_err(), "expected Ring, got \"Uni\"");
/// ```
#[macro_export]
macro_rules! json_enum {
    (encode $ty:ty { $($variant:ident = $name:literal),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::from(match self {
                    $(Self::$variant => $name,)+
                })
            }
        }
    };
    ($ty:ty { $($variant:ident = $name:literal),+ $(,)? }) => {
        $crate::json_enum!(encode $ty { $($variant = $name),+ });
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> Result<Self, String> {
                match v.as_str() {
                    $(Some($name) => Ok(Self::$variant),)+
                    _ => Err(format!("expected {}, got {v}", stringify!($ty))),
                }
            }
        }
    };
}
