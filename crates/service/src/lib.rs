//! One request plane from wire to shard for the SkipTrie forest.
//!
//! This crate is the serving pipeline layer of the reproduction: every
//! operation — point, ordered, range, pop or bulk — enters as a [`Request`]
//! (a [`Verb`] plus the caller's *virtual* send time), is routed by the top
//! key bits to the shared-nothing worker that owns the shard — one worker per
//! shard, but never more workers than the cores left beside the client — over
//! bounded SPSC mailboxes, executed there by the one function that turns a
//! [`Verb`] into a [`Reply`], and leaves as a [`Response`] carrying enough
//! timestamps to report both coordinated-omission-inclusive and
//! service-time-only latency per [`OpClass`].
//!
//! Bounded queues make overload a *measured* state instead of a hidden one:
//! admission rejects requests past the per-lane in-flight cap
//! ([`ServiceConfig::queue_cap`]), and the `SvcEnqueued` / `SvcShed`
//! counters in `skiptrie-metrics` expose exactly how much was accepted and
//! refused.
//!
//! Entry points: build a [`Service`] over an `Arc<ShardedSkipTrie<u64, E>>`
//! (e.g. a `TieredForest`'s router), open one [`Connection`] per client
//! thread, and drive it open-loop against a `skiptrie_workloads::Arrivals`
//! schedule. See `DESIGN.md` §"Serving pipeline"; `perfbench`'s `serve_open`
//! workload is the open-loop measurement.

#![warn(missing_docs)]

mod request;
mod service;
mod spsc;

pub use request::{OpClass, Reply, Request, Response, Verb};
pub use service::{Connection, Service, ServiceConfig};
pub use spsc::Spsc;
