//! Self-contained JSON layer for the overlap workspace.
//!
//! Modules are exchanged as JSON (`overlapc`, the on-disk artifact
//! cache, the `results/` figure records), and the serialization must be
//! *lossless*: a round-tripped module has to compare `==` to the
//! original and simulate to bit-identical makespans. This crate owns
//! the wire format end-to-end so that guarantee does not depend on an
//! external serializer being available or agreeing on float formatting:
//!
//! - [`Json`] — an ordered JSON value tree ([`Num`] keeps the
//!   integer/float distinction so `u64` counters survive beyond 2^53
//!   and `f64` timings round-trip bit-exactly via shortest-form
//!   printing),
//! - [`Json::parse`] — a recursive-descent parser with a depth limit
//!   (cache files and `overlapc` inputs are untrusted),
//! - [`ToJson`]/[`FromJson`] — the encode/decode traits the IR and the
//!   bench records implement,
//! - [`json_record!`]/[`json_enum!`] — one field list per wire type:
//!   both trait impls generated from it, so encode and decode cannot
//!   drift apart,
//! - [`StableHasher`]/[`Fingerprint`] — the 128-bit FNV-1a hasher
//!   behind the content-addressed artifact cache keys. It is a *stable*
//!   hash: independent of `std::hash` seeds, process, platform word
//!   size and build, so fingerprints are valid cache keys across runs.
//!
//! The layout conventions, which committed figures, cache entries and
//! wire frames pin byte for byte: objects keep insertion order and a
//! record's members appear in its `json_record!` list order (the
//! struct's declaration order) under the field's own name; a unit enum
//! is its listed name as a bare string; `Option` is the value or
//! `null`; the pretty printer indents by two spaces. A member is left
//! out of an encoding only by a record's `skip_if`/`skip_none` rule and
//! defaulted on decode only by its `absent` rule — there is no other
//! elision mechanism. Layouts the record shape cannot express stay
//! hand-written next to their type and say why in one line: externally
//! tagged enums (`Op`, `PatternKind`, `WireFormat`), newtype-transparent
//! ids (`InstrId`, `ReplicaGroups`), the untagged `ModelRef` and
//! `MachineSpec`, the `Request`/`Response`/`ServeEvent` tag dispatch,
//! and `ErrorKind` (its `as_str` already is the name table).

mod convert;
mod hash;
mod parse;
mod record;
mod value;

pub use convert::{FromJson, ToJson};
pub use hash::{Fingerprint, StableHasher};
pub use parse::JsonError;
pub use value::{Json, Num};
