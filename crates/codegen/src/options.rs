//! Code-generation options.

use accmos_ir::DiagnosticPolicy;

/// A user-defined signal diagnosis (paper §3.2B *Custom Signal Diagnose*):
/// a C predicate over an actor's output value, checked every execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomProbe {
    /// Probe name, reported in the results.
    pub name: String,
    /// Path key of the probed actor (e.g. `Model_Minus`).
    pub actor: String,
    /// C expression over the identifier `value` (the actor's first output,
    /// element 0), e.g. `value > 100 || value < -100`.
    pub condition_c: String,
}

/// Options for [`crate::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenOptions {
    /// Master switch for simulation-oriented instrumentation (coverage,
    /// collection, diagnosis). `false` produces bare calculation code —
    /// the Rapid Accelerator configuration.
    pub instrument: bool,
    /// Collect the four coverage metrics (requires `instrument`).
    pub coverage: bool,
    /// Which diagnostics to instrument (requires `instrument`).
    pub policy: DiagnosticPolicy,
    /// Custom signal probes.
    pub custom: Vec<CustomProbe>,
    /// Per-step synchronization of every signal with a host-side mirror
    /// (models Rapid Accelerator's data-transfer constraint).
    pub host_sync: bool,
    /// Maximum number of collected signal samples.
    pub signal_log_limit: usize,
    /// Consult the static interval analysis (`accmos-analyze`) and drop
    /// diagnosis checks it proves can never fire, and report coverage
    /// points it proves unsatisfiable. Sound by construction: only checks
    /// with a *proof* of impossibility are pruned, so the simulation
    /// output (digest, diagnostics, coverage counts) is identical with the
    /// flag on or off — pruning only removes dead instrumentation work.
    pub prune_proven_safe: bool,
    /// Number of test-vector lanes one generated simulator runs
    /// (structure-of-arrays multi-vector mode). `1` is the classic
    /// single-vector simulator; `N > 1` keeps one copy of every signal
    /// and state variable per lane, drives each lane from its own test
    /// file, and runs the lane-blocked driver: each lane in turn advances
    /// a block of 4,096 steps with the lane index fixed, so one process
    /// simulates N stimuli back to back, block by block.
    /// Coverage bitmaps are shared across lanes (the OR-reduction of the
    /// per-lane bitmaps); diagnostics, outputs and digests are per-lane.
    /// Ignored (treated as 1) by the Rapid Accelerator host-sync
    /// configuration.
    pub lanes: usize,
    /// Self-profiling instrumentation: wrap every emitted actor in
    /// cumulative nanosecond + invocation counters, reported at end of
    /// run as `ACCMOS:PROF` lines; a lane build counts each site
    /// once per lane per step. Observation-only by construction: the
    /// counters read the monotonic clock and bump two integers — they
    /// never touch signal, state, coverage or digest computation — so a
    /// profiled build is digest-identical to an unprofiled one (enforced
    /// by test and CI).
    pub profile: bool,
    /// **Test-only.** Fold one extra word into the output digest so the
    /// generated simulator diverges from the interpretive reference on
    /// every model. The differential fuzz harness flips this to prove,
    /// end-to-end, that a real backend bug would be detected, minimized
    /// and checked into the regression corpus — a divergence detector
    /// that has never seen a divergence is untested. Never set outside
    /// tests; the default is `false`.
    pub sabotage_digest: bool,
}

impl CodegenOptions {
    /// AccMoS defaults: fully instrumented simulation code.
    pub fn accmos() -> CodegenOptions {
        CodegenOptions::default()
    }

    /// Builder: run `n` test vectors in one simulator (see the
    /// [`CodegenOptions::lanes`] field). `n` is clamped to at least 1.
    pub fn lanes(mut self, n: usize) -> CodegenOptions {
        self.lanes = n.max(1);
        self
    }

    /// Builder: enable per-actor self-profiling (see the
    /// [`CodegenOptions::profile`] field).
    pub fn with_profile(mut self) -> CodegenOptions {
        self.profile = true;
        self
    }

    /// The effective lane count: `lanes`, except that host-sync (Rapid
    /// Accelerator) simulators are always single-lane.
    pub fn effective_lanes(&self) -> usize {
        if self.host_sync {
            1
        } else {
            self.lanes.max(1)
        }
    }

    /// The SSE Rapid Accelerator stand-in: no instrumentation, per-step
    /// host data exchange (compile it at `-O0`).
    pub fn rapid_accelerator() -> CodegenOptions {
        CodegenOptions {
            instrument: false,
            coverage: false,
            policy: DiagnosticPolicy::none(),
            host_sync: true,
            ..CodegenOptions::default()
        }
    }
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions {
            instrument: true,
            coverage: true,
            policy: DiagnosticPolicy::all(),
            custom: Vec::new(),
            host_sync: false,
            signal_log_limit: 4096,
            prune_proven_safe: true,
            lanes: 1,
            profile: false,
            sabotage_digest: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rapid_accelerator_is_uninstrumented() {
        let o = CodegenOptions::rapid_accelerator();
        assert!(!o.instrument && o.host_sync && !o.policy.any());
        let d = CodegenOptions::accmos();
        assert!(d.instrument && d.coverage && !d.host_sync);
    }

    #[test]
    fn profile_defaults_off_and_builder_enables() {
        assert!(!CodegenOptions::accmos().profile);
        assert!(!CodegenOptions::rapid_accelerator().profile);
        assert!(CodegenOptions::accmos().with_profile().profile);
    }

    #[test]
    fn lane_builder_clamps_and_host_sync_forces_scalar() {
        assert_eq!(CodegenOptions::accmos().lanes, 1);
        let o = CodegenOptions::accmos().lanes(8);
        assert_eq!(o.lanes, 8);
        assert_eq!(o.effective_lanes(), 8);
        assert_eq!(CodegenOptions::accmos().lanes(0).effective_lanes(), 1);
        let ra = CodegenOptions::rapid_accelerator().lanes(4);
        assert_eq!(ra.effective_lanes(), 1);
    }
}
