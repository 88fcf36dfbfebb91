//! **templar-service**: the concurrent query-serving subsystem.
//!
//! The paper treats the SQL query log as a static input: the Query Fragment
//! Graph is built once and every caller drives [`templar_core::Templar`]
//! synchronously.  In a deployed NLIDB the log *grows while the system
//! serves* — every answered natural-language query produces a new logged SQL
//! query that should sharpen future keyword mappings and join inferences.
//! This crate closes that loop:
//!
//! * [`server::TemplarService`] — lock-free concurrent reads over an
//!   `Arc`-swapped immutable snapshot, with a single background worker that
//!   ingests newly-logged queries and publishes refreshed snapshots
//!   epoch-style,
//! * [`ingest::IngestQueue`] — the bounded, fail-fast queue between
//!   translation threads and the worker,
//! * [`snapshot`] — versioned on-disk persistence of the log + QFG so a
//!   restart does not replay the whole log,
//! * [`wal`] — the write-ahead ingest journal: accepted entries are
//!   journaled (CRC-framed, fsync-batched segments) *before* they are
//!   applied, and [`server::TemplarService::recover`] restores a crashed
//!   service from latest-snapshot + journal-tail, torn final record
//!   truncated,
//! * [`metrics::ServiceMetrics`] — lock-free counters and end-to-end *and*
//!   per-stage latency histograms, exported together with ingest lag, QFG
//!   size and join-cache statistics as the wire type
//!   [`templar_api::MetricsReport`] ([`server::TemplarService::metrics`]),
//!   plus a Prometheus text-format exposition generated from the same
//!   declaration ([`metrics::prometheus_text`]),
//! * `slowlog` — bounded capture of the slowest translations served, each
//!   with its per-stage latency breakdown
//!   ([`server::TemplarService::slow_queries`]),
//! * [`config::ServiceConfig`] / [`error::ServiceError`] — operational
//!   tunables and failure modes,
//! * [`registry::TenantRegistry`] — multi-tenant routing: one service per
//!   database, fronted by the versioned JSON line protocol of `templar-api`
//!   (typed requests, explained responses, the [`templar_api::ApiError`]
//!   taxonomy),
//! * [`client::RegistryClient`] — an in-process client that talks to the
//!   registry through the wire encoding.
//!
//! The paper-facing semantics are unchanged: a snapshot is an ordinary
//! [`templar_core::Templar`] and still exposes exactly the two interface
//! calls of Figure 2.  Host systems consume the service through
//! [`templar_core::SharedTemplar`] (see `PipelineSystem::serving` /
//! `NaLirSystem::serving` in the `nlidb` crate).

// Production code must fail with typed errors, never panic: a serving
// process that unwraps on a disk fault takes every tenant down with it.
// Unit tests (compiled with `cfg(test)`) may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod config;
pub mod error;
pub mod ingest;
pub mod metrics;
pub mod registry;
pub mod server;
pub(crate) mod slowlog;
pub mod snapshot;
pub mod storage;
pub(crate) mod transcache;
pub mod wal;

pub use client::{is_retryable, retry_with_deadline, RegistryClient};
pub use config::{ServiceConfig, WalConfig};
pub use error::{ServiceError, SnapshotError, WalError};
pub use ingest::IngestQueue;
pub use metrics::{prometheus_text, HealthState, ServiceMetrics};
pub use registry::TenantRegistry;
pub use server::{InflightPermit, TemplarService, LOCK_FILE, SNAPSHOT_FILE, WAL_DIR};
pub use snapshot::{
    read_snapshot, read_snapshot_with_watermark, write_snapshot, write_snapshot_with_watermark,
    Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use storage::{FaultRule, FaultyStorage, FsStorage, Storage, StorageFile, StorageOp};
/// The wire report under its former service-side name.  Nothing in this
/// workspace uses the alias; it keeps the separately built benchmark
/// package (`perfbench/`), which names `templar_service::MetricsSnapshot`,
/// compiling unchanged.
pub use templar_api::MetricsReport as MetricsSnapshot;
