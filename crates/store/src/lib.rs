//! Storage engine substrate for STORM.
//!
//! The deployed STORM system stores records as JSON documents in a
//! distributed MongoDB installation over a DFS (paper §2). This crate
//! provides an in-process equivalent built from scratch:
//!
//! * [`Value`] — a JSON-like document data model, with a hand-written
//!   parser and serializer in [`json`] (no external JSON dependency, per
//!   the "free data module ... converts between different record formats
//!   and JSON" description);
//! * [`Document`] / [`Collection`] — schema-flexible record storage with a
//!   **block layer**: records live in fixed-size logical blocks and every
//!   block touch is counted ([`BlockStats`]), simulating the DFS;
//! * [`persist`] — JSON-lines save/load for collections;
//! * [`runs`] — the epoch-pinned run registry under the LSM-style ingest
//!   tier (atomic delta/run-set replacement with crash-safe publishes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collection;
mod document;
pub mod json;
pub mod persist;
pub mod runs;
pub mod validate;
mod value;

pub use collection::{BlockStats, Collection};
pub use document::{DocId, Document};
pub use value::Value;

/// Errors from the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// JSON text failed to parse.
    Json {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// An I/O error from persistence, stringified.
    Io(String),
    /// A document id was not found.
    NotFound(DocId),
    /// A logical block failed its integrity check; re-reading cannot help
    /// until the block is repaired (corruption is a property of the block,
    /// not the attempt).
    CorruptBlock {
        /// The corrupt logical block.
        block: u64,
    },
    /// A logical block read failed transiently (flaky I/O); a retry may
    /// succeed.
    TransientIo {
        /// The affected logical block.
        block: u64,
    },
}

impl StoreError {
    /// Whether retrying the failed operation can possibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::TransientIo { .. } | StoreError::Io(_))
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Json { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::NotFound(id) => write!(f, "document {id:?} not found"),
            StoreError::CorruptBlock { block } => {
                write!(f, "block {block} failed its integrity check")
            }
            StoreError::TransientIo { block } => {
                write!(f, "transient I/O failure reading block {block}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}
