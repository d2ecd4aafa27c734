//! The repository's benchmark: four named workloads over the simulator,
//! the measurement harness, the experiment sweep and the roofd service,
//! with end-to-end metrics from untraced runs and per-layer metrics from
//! traced ones. See `README.md` for the workloads, the metrics and the
//! comparison rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod nodes;
pub mod probes;
pub mod report;
pub mod requests;
pub mod stats;
pub mod trace;
pub mod workloads;
