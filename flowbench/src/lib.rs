//! The flow-setup benchmark of the ident++ decision tier.
//!
//! A single-threaded, open-loop, spin-waiting generator drives
//! `ShardedController::decide_batch` over one of three seeded workloads
//! ([`workload::Workload`]), checks every decision against an oracle
//! ([`oracle::Oracle`]), and reports end-to-end metrics (untraced run) or a
//! per-layer breakdown timed from outside the program (traced run). See
//! `README.md` beside this crate for the workloads and the metrics.

pub mod calibrate;
pub mod driver;
pub mod oracle;
pub mod process;
pub mod run;
pub mod timed;
pub mod workload;
