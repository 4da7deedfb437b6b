//! The daemon's JSON names for the workspace's one reader: [`parse`] is
//! `serde_json::from_str` and [`JsonValue`] its `serde_json::Value` (see
//! there for what is accepted and how documents are normalized).

pub use serde_json::from_str as parse;
pub use serde_json::Value as JsonValue;
