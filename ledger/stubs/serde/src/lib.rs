//! Offline stand-in for `serde`: the registry is unreachable where the
//! benchmark is built, and the workspace only names serde in derives
//! (see `serde_derive` beside this crate). The traits exist so that
//! `use serde::{Deserialize, Serialize}` resolves in both namespaces.

pub trait Serialize {}
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
