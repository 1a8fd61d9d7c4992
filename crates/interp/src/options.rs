//! Simulation options and the engine abstraction.

use accmos_graph::PreprocessedModel;
use accmos_ir::{SimulationReport, TestVectors};
use std::time::Duration;

/// Options controlling one simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Number of simulation steps (`TOTAL_STEP` in the paper's Figure 5).
    pub steps: u64,
    /// Optional wall-clock budget; the run stops early when exceeded
    /// (used by the Table 3 equal-time coverage experiment).
    pub time_budget: Option<Duration>,
    /// Stop at the end of the first step that produced any diagnostic
    /// (time-to-first-error experiments).
    pub stop_on_diagnostic: bool,
}

impl SimOptions {
    /// Run `steps` steps with full diagnostics and coverage (SSE normal
    /// mode defaults).
    pub fn steps(steps: u64) -> SimOptions {
        SimOptions { steps, ..SimOptions::default() }
    }

    /// Builder-style: set a wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> SimOptions {
        self.time_budget = Some(budget);
        self
    }

    /// Builder-style: stop on the first diagnostic.
    pub fn stopping_on_diagnostic(mut self) -> SimOptions {
        self.stop_on_diagnostic = true;
        self
    }
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            steps: 1,
            time_budget: None,
            stop_on_diagnostic: false,
        }
    }
}

/// A simulation engine: anything that can run a preprocessed model against
/// test vectors and produce a [`SimulationReport`].
///
/// Implementations in this workspace:
///
/// - [`crate::NormalEngine`] — the SSE stand-in (interpretive, full
///   diagnostics and coverage);
/// - [`crate::AcceleratorEngine`] — the SSE Accelerator stand-in
///   (pre-flattened interpretive tape, no diagnostics/coverage, per-step
///   host synchronization);
/// - `accmos_backend::CompiledSimulator` — generated C, the AccMoS path
///   (and, uninstrumented at `-O0` with host exchange, the SSE Rapid
///   Accelerator stand-in).
pub trait Engine {
    /// Engine name used in reports (`sse`, `sse-ac`, ...).
    fn name(&self) -> &'static str;

    /// Run the simulation.
    fn run(
        &self,
        pre: &PreprocessedModel,
        tests: &TestVectors,
        opts: &SimOptions,
    ) -> SimulationReport;
}
