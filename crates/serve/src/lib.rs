//! # sbc-serve — the multi-tenant coreset service tier
//!
//! A long-running process multiplexing thousands of independent tenant
//! streams, each backed by its own
//! [`StreamCoresetBuilder`](sbc::StreamCoresetBuilder) (or
//! [`ShardedIngest`](sbc::ShardedIngest) when the tenant asks for
//! shards), behind the stable versioned [`sbc::api`] request protocol:
//!
//! * **batched ingestion** — every transmission is an `SBCSRV1` frame
//!   carrying a batch of length-prefixed records
//!   (insert/delete/query/checkpoint/evict), answered record-for-record;
//! * **admission control** — the service sums each live tenant's
//!   `measured_bytes` (the [`SpaceReport`](sbc::SpaceReport) memory
//!   truth) and, past a configurable budget, either refuses mutations
//!   with a `429`-style [`ApiResponse::Overloaded`](sbc::api::ApiResponse)
//!   or sheds load by evicting the fattest idle tenants to disk
//!   ([`OverloadPolicy`]);
//! * **checkpoint-based eviction** — an evicted tenant becomes a
//!   checkpoint blob on disk (or in memory when no spill directory is
//!   configured) and is restored *transparently* by its next request;
//!   because checkpoints round-trip bit-identically, an
//!   evict→restore→continue tenant produces exactly the coreset of an
//!   uninterrupted run (property-tested in `tests/evict_restore.rs`);
//! * **live queries** — [`ApiRequest::Query`](sbc::api::ApiRequest)
//!   emits the coreset of the stream *so far* via the non-perturbing
//!   `finish_ref` path, mid-stream;
//! * **fault-tolerant transport** — [`client::Lossy`] wraps frames in
//!   the distributed layer's `(machine, seq)` envelopes and replays the
//!   seeded [`FaultPlan`](sbc::FaultPlan) drop/duplicate faults; the
//!   service deduplicates by sequence number so retries and duplicates
//!   are idempotent;
//! * **one client path** — [`Client`] is the only typed request layer:
//!   the [`Fleet`] drives every member, migration driver included,
//!   through a `Client`, and `Lossy` and the fleet deliver envelopes
//!   through one loop.
//!
//! Two binaries ship with the crate: `sbc-serve` (the server loop /
//! self-driving demo, see the README quickstart) and `serve_bench` (the
//! ≥1000-tenant load generator feeding the `"serving"` section of
//! `BENCH_streaming.json`).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod fleet;
pub mod service;

pub use client::{Client, InProcess, Lossy, MigrationManifest, Transport};
pub use fleet::{Fleet, FleetRouter, FleetServer, MigrationReport, VNODES_PER_SERVER};
pub use service::{
    CoresetService, MigrationStats, OverloadPolicy, ServeConfig, REPLAY_QUEUE_MAX_OPS,
};
