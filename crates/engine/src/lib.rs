//! The STORM engine: spatio-temporal online reasoning and management.
//!
//! This crate wires every substrate into the system of paper Figure 2:
//!
//! * [`Dataset`] — records in the storage engine plus one ST-index (a
//!   Hilbert R-tree with subtree counts, sampled through its frozen
//!   RS-tree snapshot) and the raw scan file the `SampleFirst` baseline
//!   probes;
//! * [`StormEngine`] — the facade: data import through the connector,
//!   ad-hoc updates (the update manager), and query execution;
//! * [`session`] — the online query lifecycle: progressive estimates,
//!   the three termination modes (interactive stop, quality target,
//!   best-effort time budget), and cancellation;
//! * [`interactive`] — a background session runner on which a new query
//!   can pre-empt a running one, the paper's "change the query condition
//!   without waiting for the current query to complete";
//! * [`viz`] — the visualizer: ASCII heat maps and PPM images of KDE
//!   density maps and trajectories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod engine;
mod exec;
pub mod interactive;
mod persist;
pub mod session;
pub mod viz;

pub use dataset::{Dataset, DatasetConfig};
pub use engine::{ImportReport, StormEngine};
pub use session::{CancelToken, Progress, QueryOutcome, StopCheck, StopReason, TaskResult};
// Fault-injection / degraded-execution vocabulary, re-exported so engine
// users can configure chaos runs and inspect degradation without a direct
// storm-faultkit dependency.
pub use storm_faultkit::{DegradedInfo, FaultHook, FaultPlan, RetryPolicy};

/// Engine-level errors.
#[derive(Debug)]
pub enum EngineError {
    /// The referenced data set does not exist.
    NoSuchDataset(String),
    /// A data set with this name already exists.
    DatasetExists(String),
    /// STORM-QL failed to parse or plan.
    Ql(storm_query::QlError),
    /// Import failed.
    Connector(storm_connector::ConnectorError),
    /// The query needs an index this data set was built without.
    IndexUnavailable(&'static str),
    /// The queried attribute is absent or non-numeric in sampled records.
    BadAttribute(String),
    /// A record's location is not a finite point.
    NonFinitePoint(storm_geo::StPoint),
    /// An internal invariant did not hold — a bug surfaced as an error
    /// instead of a panic, so an interactive session survives it.
    Internal(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NoSuchDataset(name) => write!(f, "no such dataset '{name}'"),
            EngineError::DatasetExists(name) => write!(f, "dataset '{name}' already exists"),
            EngineError::Ql(e) => write!(f, "{e}"),
            EngineError::Connector(e) => write!(f, "import failed: {e}"),
            EngineError::IndexUnavailable(which) => {
                write!(f, "this dataset was built without the {which} index")
            }
            EngineError::BadAttribute(field) => {
                write!(f, "attribute '{field}' is missing or non-numeric")
            }
            EngineError::NonFinitePoint(p) => {
                write!(f, "location ({}, {}) is not finite", p.xy.x(), p.xy.y())
            }
            EngineError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<storm_query::QlError> for EngineError {
    fn from(e: storm_query::QlError) -> Self {
        EngineError::Ql(e)
    }
}

impl From<storm_connector::ConnectorError> for EngineError {
    fn from(e: storm_connector::ConnectorError) -> Self {
        EngineError::Connector(e)
    }
}
