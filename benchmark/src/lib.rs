//! # xsi-benchmark — end-to-end and per-layer benchmark of xsi
//!
//! Drives the system only through its public calls (`xsi-xml`,
//! `xsi-core`, `xsi-query`) on four workloads generated from a seed by
//! `xsi-workload`, and reports end-to-end metrics from an untraced run
//! and per-layer metrics from a separate traced run. See `README.md`
//! for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod input;
pub mod run;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use runner::{run, Outcome};
pub use workloads::{Plan, PLANS};
