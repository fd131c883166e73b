//! End-to-end and per-layer benchmark of the joint HEV controller
//! workspace. See `README.md` in this package for the workloads, the
//! metrics and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hook;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stamp;
pub mod stats;
pub mod untraced;
pub mod workload;
