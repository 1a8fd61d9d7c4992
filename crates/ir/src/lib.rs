//! # accmos-ir
//!
//! The intermediate representation shared by every AccMoS-RS crate: signal
//! [`DataType`]s and runtime [`Value`]s with C-compatible semantics, the
//! 58-template actor library ([`ActorKind`]), hierarchical [`Model`]s with
//! structural validation, the four-metric coverage machinery, the
//! calculation-diagnosis taxonomy, and the engine-independent
//! [`SimulationReport`].
//!
//! AccMoS-RS reproduces *AccMoS: Accelerating Model Simulation for Simulink
//! via Code Generation* (DAC 2024). This crate corresponds to the data the
//! paper's *Model Preprocessing* step extracts: actor type and operator for
//! coverage analysis, input/output signals for diagnosis, and hierarchical
//! paths (`MODEL_SUBSYSTEM_ADD2`) as index keys.
//!
//! ## Example
//!
//! Build the paper's Figure 1 model — two accumulators feeding a sum that
//! eventually wraps:
//!
//! ```
//! use accmos_ir::{ActorKind, DataType, ModelBuilder, Scalar};
//!
//! let mut b = ModelBuilder::new("Sample");
//! b.inport("A", DataType::I32);
//! b.inport("B", DataType::I32);
//! b.actor("AccA", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::I32(0) });
//! b.actor("AccB", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::I32(0) });
//! b.actor("Sum", ActorKind::Sum { signs: "++".into() });
//! b.outport("Out", DataType::I32);
//! b.connect(("A", 0), ("AccA", 0));
//! b.connect(("B", 0), ("AccB", 0));
//! b.connect(("AccA", 0), ("Sum", 0));
//! b.connect(("AccB", 0), ("Sum", 1));
//! b.connect(("Sum", 0), ("Out", 0));
//! let model = b.build()?;
//! assert_eq!(model.root.actor_count(), 6);
//! # Ok::<(), accmos_ir::ModelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod actor;
mod coverage;
mod diag;
mod digest;
mod dtype;
mod error;
mod interval;
mod json;
mod model;
mod path;
mod report;
mod testcase;
mod value;

pub use actor::{
    Actor, ActorKind, BitOp, LogicOp, LookupMethod, MathOp, MinMaxOp, RoundOp, ShiftDir,
    SwitchCriteria, TrigOp,
};
pub use coverage::{CoverageBitmap, CoverageBitmaps, CoverageCounts, CoverageKind, CoverageMap};
pub use diag::{applicable_diagnoses, DiagnosticEvent, DiagnosticKind, DiagnosticPolicy};
pub use digest::{source_digest_hex, OutputDigest};
pub use dtype::{DataType, ParseDataTypeError};
pub use error::ModelError;
pub use interval::{Interval, F64_EXACT_INT};
pub use json::{parse_flat_object, Fields, JsonObject};
pub use model::{
    Block, BlockBody, Line, Model, ModelBuilder, PortRef, System, SystemBuilder, SystemKind,
};
pub use path::ActorPath;
pub use report::{ActorProfile, CustomEvent, SignalSample, SimulationReport, SIGNAL_LOG_LIMIT};
pub use testcase::{ParseTestVectorsError, TestColumn, TestVectors};
pub use value::{BinOp, RelOp, Scalar, Value};
