//! The ISPN simulator's benchmark: three workloads run through the
//! program's public API, end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run.  See `README.md`.

pub mod checks;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod timing;
pub mod trace;
pub mod workloads;
