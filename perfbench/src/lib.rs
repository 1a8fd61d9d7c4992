//! # accmos-perfbench
//!
//! The layered performance benchmark of AccMoS-RS. Five workloads each
//! stress a different layer of the pipeline (MDLX parse → preprocess →
//! analyze → codegen → `cc` → dispatch → generated loop → report parse,
//! plus the interpretive baseline); every run checks its results against
//! the interpreter and prints one JSON result line. See `README.md` for
//! the workloads, metrics, bounds and how to run, trace and compare.

pub mod compare;
pub mod json;
pub mod oracle;
pub mod replay;
pub mod spec;
pub mod stats;
pub mod workloads;
