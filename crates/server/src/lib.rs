//! Multi-session online-aggregation serving (ROADMAP open item 2).
//!
//! STORM's pitch (paper §1, Definition 1) is *many* interactive users
//! watching estimates refine live and terminating queries at will — but a
//! [`storm_core::ParallelSampler`] serves exactly one query over the shard
//! workers. This crate is the serving layer on top: a
//! [`SessionServer`] multiplexes hundreds-to-thousands of concurrent
//! online-aggregation sessions over **one shared pool of frozen-shard
//! workers**, the same continuous-batching shape inference servers use.
//!
//! ## Architecture
//!
//! ```text
//!   clients ──open/poll/terminate──▶ SessionServer ──ctrl──▶ scheduler thread
//!                                                               │ per tick:
//!                                                               │  1. drain control (admit / cancel)
//!                                                               │  2. DRR credit grant
//!                                                               │  3. rounds: draw → plan → coalesce
//!                                                               │  4. one FillMany per shard  ──▶ shard workers
//!                                                               │  5. gather Batches, merge, estimate
//!                                                               │  6. emit Progress / Done events
//! ```
//!
//! The scheduler (see [`mod@scheduler`] docs for the coalescing math and
//! the fairness invariant) keeps only scheduling. Every worker exchange
//! goes through one [`storm_core::Coordinator`]: each session's round
//! state lives in a [`storm_core::SessionStream`], the coordinator
//! coalesces pending fills from *all* runnable sessions into one
//! `FillMany` per shard per tick and applies the cluster's fault policy,
//! and deficit-round-robin credit keeps a huge scan from starving small
//! queries.
//!
//! ## Determinism contract
//!
//! A session's estimate sequence depends only on its own
//! [`QuerySpec::seed`], never on co-tenant interleaving: the scheduler may
//! *delay* a session's rounds, but round sizes, shard-stream seeds, and
//! merge order are all pure functions of session-local state (the
//! invariant the `storm_core::parallel` docs state, pinned here by the
//! solo-vs-co-tenant tests in `tests/serve.rs`).
//!
//! The wire layer ([`mod@wire`]) exposes open/poll/terminate as
//! length-prefixed frames over TCP or unix sockets — hand-rolled, no
//! serialization dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheduler;
pub mod wire;

pub use scheduler::{
    QuerySpec, ServeConfig, ServerStats, SessionEvent, SessionHandle, SessionServer,
};
pub use wire::{WireClient, WireEvent, WireServer};
