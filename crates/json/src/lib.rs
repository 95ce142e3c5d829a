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
//! - [`StableHasher`]/[`Fingerprint`] — the 128-bit FNV-1a hasher
//!   behind the content-addressed artifact cache keys. It is a *stable*
//!   hash: independent of `std::hash` seeds, process, platform word
//!   size and build, so fingerprints are valid cache keys across runs.
//!
//! The object model preserves insertion order and the printers mirror
//! the layout `serde_json` would produce for derived types (externally
//! tagged enums, declaration-order fields, 2-space pretty indent), so
//! files written by earlier, serde-based revisions parse identically.

mod convert;
mod hash;
mod parse;
mod value;

pub use convert::{FromJson, ToJson};
pub use hash::{Fingerprint, StableHasher};
pub use parse::JsonError;
pub use value::{Json, Num};
