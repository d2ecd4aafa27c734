//! `roofline-service`: a concurrent roofline-analysis service with
//! content-addressed result caching.
//!
//! The repository's experiments are pure functions of
//! `(experiment, platform spec, fidelity)` — the determinism contract the
//! sweep executor and golden-snapshot tests enforce. This crate turns
//! that contract into a long-running service, `roofd`, that:
//!
//! * accepts analysis requests over a JSON-lines TCP protocol
//!   ([`protocol`], framing in `roofline_core::json`);
//! * schedules computations on the existing sweep worker pool with
//!   per-request staging directories ([`engine`]);
//! * coalesces identical concurrent requests onto one computation;
//! * caches results content-addressed by the request tuple, in a
//!   byte-budgeted memory LRU spilling to an on-disk store laid out like
//!   the `repro` binary's `out/` tree ([`cache`]);
//! * enforces backpressure with a bounded queue and the per-experiment
//!   wall budgets from the experiment registry;
//! * reports hits, misses, coalescing, evictions, and latency
//!   percentiles ([`stats`]);
//! * survives hostile clients and dirty disks: per-socket timeouts, a
//!   line-length cap, a concurrency gate, request deadlines,
//!   checksummed cache entries with quarantine, and poison-recovering
//!   locks ([`server`], [`engine`], [`cache`], [`sync`]) — every
//!   failure mode drivable on demand through the [`faults`] chaos
//!   knobs, mirroring `simx86`'s measurement-layer fault injection;
//! * scales out as a **fleet**: token-based client identity with
//!   per-tenant fair-share quotas ([`auth`]) and coordination-free
//!   consistent-hash cache sharding with cache-peer fetches
//!   ([`fleet`]).
//!
//! The companion binary `roofctl` is a thin CLI over [`client`], with
//! seeded-backoff retries for transient failures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod cache;
pub mod cli;
pub mod client;
pub mod engine;
pub mod faults;
pub mod fleet;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod sync;

/// The default on-disk cache directory, relative to the working
/// directory — kept out of version control (see `.gitignore`).
pub const DEFAULT_CACHE_DIR: &str = ".roofd-cache";

/// The default listen/connect address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:47130";
