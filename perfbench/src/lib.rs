//! End-to-end and per-layer benchmark of the SAR system: 2-rank TCP
//! training and serving deployments, driven from outside the program
//! through its public functions. See `README.md` for the workloads and
//! every metric.

pub mod coordinator;
pub mod rank;
pub mod spec;
pub mod trace;
