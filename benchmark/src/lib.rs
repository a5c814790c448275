//! `mmbench`: the repo's end-to-end benchmark (see `README.md`).
//!
//! The library holds what the gated binary (`mmbench`) and the traced
//! one (`mmbench-trace`) share. Nothing in it reaches below the
//! `Engine` / `Server` / `Client` surface; calls into the crates
//! underneath live in `probes.rs`, which only `mmbench-trace` declares.

pub mod cli;
pub mod host;
pub mod manifest;
pub mod scenario;
pub mod spans;
pub mod stats;
pub mod workloads;
