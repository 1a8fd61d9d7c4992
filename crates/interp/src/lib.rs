//! # accmos-interp
//!
//! Interpretive simulation engines — the stand-ins for Simulink's
//! simulation engine that AccMoS is measured against:
//!
//! - [`NormalEngine`] (`sse`): step-by-step interpretation with full
//!   runtime diagnostics, four-metric coverage and signal monitoring;
//! - [`AcceleratorEngine`] (`sse-ac`): pre-flattened interpretive tape,
//!   no diagnostics or coverage, per-step host synchronization.
//!
//! (The Rapid Accelerator stand-in is produced by `accmos-codegen` /
//! `accmos-backend`: uninstrumented generated C at `-O0` with per-step
//! host data exchange.)
//!
//! The [`semantics`] module is the reference the generated C code must
//! match; differential tests in the workspace compare both paths
//! bit-for-bit on integer models.
//!
//! ## Example
//!
//! ```
//! use accmos_interp::{Engine, NormalEngine, SimOptions};
//! use accmos_ir::{ActorKind, DataType, ModelBuilder, Scalar, TestVectors};
//!
//! let mut b = ModelBuilder::new("M");
//! b.inport("In", DataType::I32);
//! b.actor("Twice", ActorKind::Gain { gain: Scalar::I32(2) });
//! b.outport("Out", DataType::I32);
//! b.wire("In", "Twice");
//! b.wire("Twice", "Out");
//! let pre = accmos_graph::preprocess(&b.build()?)?;
//!
//! let tests = TestVectors::constant("In", Scalar::I32(21), 1);
//! let report = NormalEngine::new().run(&pre, &tests, &SimOptions::steps(3));
//! assert_eq!(report.final_outputs[0].1.to_string(), "42");
//! # Ok::<(), accmos_ir::ModelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod accel;
mod normal;
mod options;
pub mod semantics;

pub use accel::AcceleratorEngine;
pub use normal::NormalEngine;
pub use options::{Engine, SimOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use accmos_graph::preprocess;
    use accmos_ir::{
        ActorKind, CoverageKind, DataType, DiagnosticKind, LogicOp, Model, ModelBuilder, RelOp,
        Scalar, SimulationReport, SwitchCriteria, SystemKind, TestVectors, Value,
    };

    fn run(model: &Model, tests: &TestVectors, steps: u64) -> SimulationReport {
        let pre = preprocess(model).unwrap();
        NormalEngine::new().run(&pre, tests, &SimOptions::steps(steps))
    }

    fn out0(report: &SimulationReport) -> &Value {
        &report.final_outputs[0].1
    }

    #[test]
    fn passthrough_reads_test_vectors_cyclically() {
        let mut b = ModelBuilder::new("M");
        b.inport("In", DataType::I32);
        b.outport("Out", DataType::I32);
        b.wire("In", "Out");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("In", DataType::I32, vec![Scalar::I32(10), Scalar::I32(20)]);
        let r = run(&model, &tv, 3); // steps 0,1,2 -> values 10,20,10
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(10)));
        assert_eq!(r.steps, 3);
    }

    #[test]
    fn figure1_overflow_detected() {
        // The paper's Figure 1: two accumulators into a sum; int32 wraps
        // after enough steps.
        let mut b = ModelBuilder::new("Sample");
        b.inport("A", DataType::I32);
        b.inport("B", DataType::I32);
        b.actor("AccA", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::I32(0) });
        b.actor("AccB", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::I32(0) });
        b.actor("Sum", ActorKind::Sum { signs: "++".into() });
        b.outport("Out", DataType::I32);
        b.connect(("A", 0), ("AccA", 0));
        b.connect(("B", 0), ("AccB", 0));
        b.connect(("AccA", 0), ("Sum", 0));
        b.connect(("AccB", 0), ("Sum", 1));
        b.connect(("Sum", 0), ("Out", 0));
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        let big = i32::MAX / 4;
        tv.push_column("A", DataType::I32, vec![Scalar::I32(big)]);
        tv.push_column("B", DataType::I32, vec![Scalar::I32(big)]);
        let pre = preprocess(&model).unwrap();
        let r = NormalEngine::new().run(
            &pre,
            &tv,
            &SimOptions::steps(100).stopping_on_diagnostic(),
        );
        assert!(r.has_diagnostic(DiagnosticKind::WrapOnOverflow), "{r}");
        let first = r.first_diagnostic(DiagnosticKind::WrapOnOverflow).unwrap();
        assert_eq!(first.actor, "Sample_Sum");
        assert!(r.steps < 100, "stopped early at {}", r.steps);
    }

    #[test]
    fn unit_delay_shifts_by_one_step() {
        let mut b = ModelBuilder::new("M");
        b.inport("In", DataType::I32);
        b.actor("D", ActorKind::UnitDelay { init: Scalar::I32(-1) });
        b.outport("Out", DataType::I32);
        b.wire("In", "D");
        b.wire("D", "Out");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column(
            "In",
            DataType::I32,
            (0..5).map(|i| Scalar::I32(i * 10)).collect(),
        );
        // After step 0 the output is the init; after step k it is in[k-1].
        let r = run(&model, &tv, 1);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(-1)));
        let r = run(&model, &tv, 3);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(10)));
    }

    #[test]
    fn delay_n_uses_buffer() {
        let mut b = ModelBuilder::new("M");
        b.actor("Clk", ActorKind::Clock);
        b.actor("D", ActorKind::Delay { steps: 3, init: Scalar::I32(99) });
        b.outport("Out", DataType::I32);
        b.wire("Clk", "D");
        b.wire("D", "Out");
        let model = b.build().unwrap();
        let r = run(&model, &TestVectors::new(), 3);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(99)));
        let r = run(&model, &TestVectors::new(), 5);
        // step 4 emits clock value from step 1
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(1)));
    }

    #[test]
    fn feedback_counter_via_unit_delay() {
        let mut b = ModelBuilder::new("M");
        b.constant("One", Scalar::I32(1));
        b.actor("D", ActorKind::UnitDelay { init: Scalar::I32(0) });
        b.actor("Add", ActorKind::Sum { signs: "++".into() });
        b.outport("Out", DataType::I32);
        b.connect(("D", 0), ("Add", 0));
        b.connect(("One", 0), ("Add", 1));
        b.connect(("Add", 0), ("D", 0));
        b.wire("Add", "Out");
        let model = b.build().unwrap();
        let r = run(&model, &TestVectors::new(), 10);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(10)));
    }

    #[test]
    fn switch_selects_by_criteria_and_covers_branches() {
        let mut b = ModelBuilder::new("M");
        b.inport("C", DataType::F64);
        b.constant("Hi", Scalar::F64(1.0));
        b.constant("Lo", Scalar::F64(-1.0));
        b.actor("Sw", ActorKind::Switch { criteria: SwitchCriteria::GreaterEqual(0.5) });
        b.outport("Out", DataType::F64);
        b.connect(("Hi", 0), ("Sw", 0));
        b.connect(("C", 0), ("Sw", 1));
        b.connect(("Lo", 0), ("Sw", 2));
        b.wire("Sw", "Out");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("C", DataType::F64, vec![Scalar::F64(0.9)]);
        let r = run(&model, &tv, 1);
        assert_eq!(out0(&r), &Value::scalar(Scalar::F64(1.0)));
        let cov = r.coverage.unwrap();
        assert_eq!(cov.counts(CoverageKind::Condition).covered, 1);
        assert_eq!(cov.counts(CoverageKind::Condition).total, 2);

        // Alternate control exercises both branches.
        let mut tv = TestVectors::new();
        tv.push_column("C", DataType::F64, vec![Scalar::F64(0.9), Scalar::F64(0.0)]);
        let r = run(&model, &tv, 2);
        assert_eq!(r.coverage.unwrap().percent(CoverageKind::Condition), 100.0);
    }

    #[test]
    fn decision_and_mcdc_coverage_for_and_gate() {
        let mut b = ModelBuilder::new("M");
        b.inport("A", DataType::Bool);
        b.inport("B", DataType::Bool);
        b.actor("And", ActorKind::Logical { op: LogicOp::And, inputs: 2 });
        b.outport("Y", DataType::Bool);
        b.connect(("A", 0), ("And", 0));
        b.connect(("B", 0), ("And", 1));
        b.wire("And", "Y");
        let model = b.build().unwrap();

        // Only (T,T): decision true seen; MC/DC: both inputs shown true.
        let mut tv = TestVectors::new();
        tv.push_column("A", DataType::Bool, vec![Scalar::Bool(true)]);
        tv.push_column("B", DataType::Bool, vec![Scalar::Bool(true)]);
        let r = run(&model, &tv, 1);
        let cov = r.coverage.unwrap();
        assert_eq!(cov.counts(CoverageKind::Decision).covered, 1);
        assert_eq!(cov.counts(CoverageKind::Mcdc).covered, 2);
        assert_eq!(cov.counts(CoverageKind::Mcdc).total, 4);

        // (T,T), (T,F), (F,T) achieves full decision + MC/DC.
        let mut tv = TestVectors::new();
        tv.push_column(
            "A",
            DataType::Bool,
            vec![Scalar::Bool(true), Scalar::Bool(true), Scalar::Bool(false)],
        );
        tv.push_column(
            "B",
            DataType::Bool,
            vec![Scalar::Bool(true), Scalar::Bool(false), Scalar::Bool(true)],
        );
        let r = run(&model, &tv, 3);
        let cov = r.coverage.unwrap();
        assert_eq!(cov.percent(CoverageKind::Decision), 100.0);
        assert_eq!(cov.percent(CoverageKind::Mcdc), 100.0);
    }

    #[test]
    fn enabled_subsystem_holds_outputs_when_inactive() {
        let mut b = ModelBuilder::new("M");
        b.inport("En", DataType::Bool);
        b.subsystem("Sub", SystemKind::Enabled, |s| {
            s.actor("Cnt", ActorKind::Counter { limit: 100 });
            s.outport("y", DataType::I32);
            s.wire("Cnt", "y");
        });
        b.outport("Y", DataType::I32);
        b.wire_to("En", "Sub", 0);
        b.wire("Sub", "Y");
        let model = b.build().unwrap();
        // Enabled on steps 0,1 then disabled.
        let mut tv = TestVectors::new();
        tv.push_column(
            "En",
            DataType::Bool,
            vec![Scalar::Bool(true), Scalar::Bool(true), Scalar::Bool(false), Scalar::Bool(false)],
        );
        let r = run(&model, &tv, 4);
        // Counter ran twice (0 then 1); output held at 1 afterwards.
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(1)));
        let cov = r.coverage.unwrap();
        assert_eq!(cov.percent(CoverageKind::Condition), 100.0);
    }

    #[test]
    fn disabled_subsystem_never_executes_actors() {
        let mut b = ModelBuilder::new("M");
        b.constant("Off", Scalar::Bool(false));
        b.subsystem("Sub", SystemKind::Enabled, |s| {
            s.actor("Cnt", ActorKind::Counter { limit: 100 });
            s.outport("y", DataType::I32);
            s.wire("Cnt", "y");
        });
        b.outport("Y", DataType::I32);
        b.wire_to("Off", "Sub", 0);
        b.wire("Sub", "Y");
        let model = b.build().unwrap();
        let r = run(&model, &TestVectors::new(), 3);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(0)));
        let cov = r.coverage.unwrap();
        // Off constant + root outport executed; Cnt + boundary outport did not.
        assert!(cov.percent(CoverageKind::Actor) < 100.0);
    }

    #[test]
    fn triggered_subsystem_fires_on_rising_edge_only() {
        let mut b = ModelBuilder::new("M");
        b.inport("T", DataType::Bool);
        b.subsystem("Sub", SystemKind::Triggered, |s| {
            s.actor("Cnt", ActorKind::Counter { limit: 100 });
            s.outport("y", DataType::I32);
            s.wire("Cnt", "y");
        });
        b.outport("Y", DataType::I32);
        b.wire_to("T", "Sub", 0);
        b.wire("Sub", "Y");
        let model = b.build().unwrap();
        // T: 1,1,0,1 -> rising edges at steps 0 and 3 (prev starts false).
        let mut tv = TestVectors::new();
        tv.push_column(
            "T",
            DataType::Bool,
            vec![Scalar::Bool(true), Scalar::Bool(true), Scalar::Bool(false), Scalar::Bool(true)],
        );
        let r = run(&model, &tv, 4);
        // Counter executed twice -> outputs 0 then 1; final held at 1.
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(1)));
    }

    #[test]
    fn division_by_zero_diagnosed() {
        let mut b = ModelBuilder::new("M");
        b.inport("A", DataType::I32);
        b.inport("B", DataType::I32);
        b.actor("Div", ActorKind::Product { ops: "*/".into() });
        b.outport("Y", DataType::I32);
        b.connect(("A", 0), ("Div", 0));
        b.connect(("B", 0), ("Div", 1));
        b.wire("Div", "Y");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("A", DataType::I32, vec![Scalar::I32(6)]);
        tv.push_column("B", DataType::I32, vec![Scalar::I32(3), Scalar::I32(0)]);
        let r = run(&model, &tv, 2);
        assert!(r.has_diagnostic(DiagnosticKind::DivisionByZero));
        let e = r.first_diagnostic(DiagnosticKind::DivisionByZero).unwrap();
        assert_eq!(e.first_step, 1);
        assert_eq!(e.count, 1);
    }

    #[test]
    fn downcast_fires_once_at_first_execution() {
        // The paper's second CSEV fault: product of int32s into int16.
        let mut b = ModelBuilder::new("M");
        b.inport("V", DataType::I32);
        b.inport("I", DataType::I32);
        b.actor(
            "Power",
            accmos_ir::Actor::new(ActorKind::Product { ops: "**".into() })
                .with_dtype(DataType::I16),
        );
        b.outport("P", DataType::I16);
        b.connect(("V", 0), ("Power", 0));
        b.connect(("I", 0), ("Power", 1));
        b.wire("Power", "P");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("V", DataType::I32, vec![Scalar::I32(2)]);
        tv.push_column("I", DataType::I32, vec![Scalar::I32(3)]);
        let r = run(&model, &tv, 5);
        let e = r.first_diagnostic(DiagnosticKind::Downcast).unwrap();
        assert_eq!(e.first_step, 0);
        assert_eq!(e.count, 1);
    }

    #[test]
    fn precision_loss_on_fractional_float_to_int() {
        let mut b = ModelBuilder::new("M");
        b.inport("X", DataType::F64);
        b.actor("Cvt", ActorKind::DataTypeConversion { to: DataType::I32 });
        b.outport("Y", DataType::I32);
        b.wire("X", "Cvt");
        b.wire("Cvt", "Y");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("X", DataType::F64, vec![Scalar::F64(2.0), Scalar::F64(2.5)]);
        let r = run(&model, &tv, 2);
        let e = r.first_diagnostic(DiagnosticKind::PrecisionLoss).unwrap();
        assert_eq!(e.first_step, 1, "2.0 converts exactly; 2.5 does not");
    }

    #[test]
    fn oob_selector_diagnosed_and_clamped() {
        let mut b = ModelBuilder::new("M");
        b.actor(
            "V",
            ActorKind::Constant {
                value: Value::vector(vec![Scalar::F64(10.0), Scalar::F64(20.0)]),
            },
        );
        b.inport("I", DataType::I32);
        b.actor("Sel", ActorKind::Selector { indices: vec![], dynamic: true });
        b.outport("Y", DataType::F64);
        b.wire_to("V", "Sel", 0);
        b.connect(("I", 0), ("Sel", 1));
        b.wire("Sel", "Y");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("I", DataType::I32, vec![Scalar::I32(7)]);
        let r = run(&model, &tv, 1);
        assert!(r.has_diagnostic(DiagnosticKind::ArrayOutOfBounds));
        assert_eq!(out0(&r), &Value::scalar(Scalar::F64(20.0)), "clamped to last");
    }

    #[test]
    fn domain_error_for_sqrt_of_negative() {
        let mut b = ModelBuilder::new("M");
        b.inport("X", DataType::F64);
        b.actor("Root", ActorKind::Sqrt);
        b.outport("Y", DataType::F64);
        b.wire("X", "Root");
        b.wire("Root", "Y");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("X", DataType::F64, vec![Scalar::F64(-4.0)]);
        let r = run(&model, &tv, 1);
        assert!(r.has_diagnostic(DiagnosticKind::DomainError));
    }

    #[test]
    fn data_store_read_write_roundtrip() {
        // quantity += 3 each step, via data store (the CSEV pattern).
        let mut b = ModelBuilder::new("M");
        b.actor("Mem", ActorKind::DataStoreMemory { store: "q".into(), init: Scalar::I32(0) });
        b.actor("R", ActorKind::DataStoreRead { store: "q".into() });
        b.constant("Three", Scalar::I32(3));
        b.actor("Add", ActorKind::Sum { signs: "++".into() });
        b.actor("W", ActorKind::DataStoreWrite { store: "q".into() });
        b.outport("Y", DataType::I32);
        b.connect(("R", 0), ("Add", 0));
        b.connect(("Three", 0), ("Add", 1));
        b.wire("Add", "W");
        b.wire("Add", "Y");
        let model = b.build().unwrap();
        let r = run(&model, &TestVectors::new(), 4);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(12)));
    }

    #[test]
    fn monitored_signals_are_logged() {
        let mut b = ModelBuilder::new("M");
        b.inport("X", DataType::I32);
        b.actor("Neg", accmos_ir::Actor::new(ActorKind::Gain { gain: Scalar::I32(-1) }).monitored());
        b.actor("Scope", ActorKind::Scope);
        b.wire("X", "Neg");
        b.wire("Neg", "Scope");
        let model = b.build().unwrap();
        let tv = TestVectors::constant("X", Scalar::I32(5), 1);
        let r = run(&model, &tv, 2);
        let paths: Vec<&str> = r.signal_log.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"M_Neg_out"), "{paths:?}");
        assert!(paths.contains(&"M_Scope_in"), "{paths:?}");
        assert_eq!(r.signal_log[0].value, Value::scalar(Scalar::I32(-5)));
    }

    #[test]
    fn accelerator_matches_normal_outputs_without_reports() {
        let mut b = ModelBuilder::new("M");
        b.inport("X", DataType::I32);
        b.actor("Sq", ActorKind::Math { op: accmos_ir::MathOp::Square });
        b.actor("D", ActorKind::UnitDelay { init: Scalar::I32(0) });
        b.actor("Add", ActorKind::Sum { signs: "+-".into() });
        b.outport("Y", DataType::I32);
        b.wire("X", "Sq");
        b.wire("Sq", "D");
        b.connect(("Sq", 0), ("Add", 0));
        b.connect(("D", 0), ("Add", 1));
        b.wire("Add", "Y");
        let model = b.build().unwrap();
        let pre = preprocess(&model).unwrap();
        let mut tv = TestVectors::new();
        tv.push_column(
            "X",
            DataType::I32,
            (0..7).map(|i| Scalar::I32(i * 3 - 10)).collect(),
        );
        let opts = SimOptions::steps(20);
        let normal = NormalEngine::new().run(&pre, &tv, &opts);
        let accel = AcceleratorEngine::new().run(&pre, &tv, &opts);
        assert_eq!(normal.output_digest, accel.output_digest);
        assert_eq!(normal.final_outputs, accel.final_outputs);
        assert!(accel.coverage.is_none());
        assert!(accel.diagnostics.is_empty());
    }

    #[test]
    fn relational_compares_mixed_integer_types_exactly() {
        let mut b = ModelBuilder::new("M");
        b.constant("Big", Scalar::U64(u64::MAX));
        b.constant("Neg", Scalar::I32(-1));
        b.actor("Gt", ActorKind::Relational { op: RelOp::Gt });
        b.outport("Y", DataType::Bool);
        b.connect(("Big", 0), ("Gt", 0));
        b.connect(("Neg", 0), ("Gt", 1));
        b.wire("Gt", "Y");
        let model = b.build().unwrap();
        let r = run(&model, &TestVectors::new(), 1);
        assert_eq!(out0(&r), &Value::scalar(Scalar::Bool(true)));
    }

    #[test]
    fn time_budget_stops_early() {
        let mut b = ModelBuilder::new("M");
        b.actor("Rand", ActorKind::RandomNumber { seed: 1 });
        b.outport("Y", DataType::F64);
        b.wire("Rand", "Y");
        let model = b.build().unwrap();
        let pre = preprocess(&model).unwrap();
        let opts = SimOptions::steps(u64::MAX / 2)
            .with_budget(std::time::Duration::from_millis(30));
        let r = NormalEngine::new().run(&pre, &TestVectors::new(), &opts);
        assert!(r.steps > 0);
        assert!(r.wall < std::time::Duration::from_secs(5));
    }

    #[test]
    fn merge_takes_last_active_input() {
        let mut b = ModelBuilder::new("M");
        b.inport("Sel", DataType::Bool);
        b.actor("NotSel", ActorKind::Logical { op: LogicOp::Not, inputs: 1 });
        b.subsystem("OnTrue", SystemKind::Enabled, |s| {
            s.constant("K", Scalar::I32(111));
            s.outport("y", DataType::I32);
            s.wire("K", "y");
        });
        b.subsystem("OnFalse", SystemKind::Enabled, |s| {
            s.constant("K", Scalar::I32(222));
            s.outport("y", DataType::I32);
            s.wire("K", "y");
        });
        b.actor("Merge", ActorKind::Merge { inputs: 2 });
        b.outport("Y", DataType::I32);
        b.wire("Sel", "NotSel");
        b.wire_to("Sel", "OnTrue", 0);
        b.wire_to("NotSel", "OnFalse", 0);
        b.connect(("OnTrue", 0), ("Merge", 0));
        b.connect(("OnFalse", 0), ("Merge", 1));
        b.wire("Merge", "Y");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("Sel", DataType::Bool, vec![Scalar::Bool(true)]);
        let r = run(&model, &tv, 1);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(111)));
        let mut tv = TestVectors::new();
        tv.push_column("Sel", DataType::Bool, vec![Scalar::Bool(false)]);
        let r = run(&model, &tv, 1);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I32(222)));
    }

    #[test]
    fn saturation_covers_three_branches() {
        let mut b = ModelBuilder::new("M");
        b.inport("X", DataType::F64);
        b.actor("Sat", ActorKind::Saturation { lo: -1.0, hi: 1.0 });
        b.outport("Y", DataType::F64);
        b.wire("X", "Sat");
        b.wire("Sat", "Y");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column(
            "X",
            DataType::F64,
            vec![Scalar::F64(-5.0), Scalar::F64(0.5), Scalar::F64(5.0)],
        );
        let r = run(&model, &tv, 3);
        assert_eq!(r.coverage.as_ref().unwrap().percent(CoverageKind::Condition), 100.0);
        assert_eq!(out0(&r), &Value::scalar(Scalar::F64(1.0)));
    }

    #[test]
    fn vector_pipeline_mux_dot() {
        let mut b = ModelBuilder::new("M");
        b.inport("A", DataType::I64);
        b.inport("B", DataType::I64);
        b.actor("Mux", ActorKind::Mux { inputs: 2 });
        b.actor("Dot", ActorKind::DotProduct);
        b.outport("Y", DataType::I64);
        b.connect(("A", 0), ("Mux", 0));
        b.connect(("B", 0), ("Mux", 1));
        b.connect(("Mux", 0), ("Dot", 0));
        b.connect(("Mux", 0), ("Dot", 1));
        b.wire("Dot", "Y");
        let model = b.build().unwrap();
        let mut tv = TestVectors::new();
        tv.push_column("A", DataType::I64, vec![Scalar::I64(3)]);
        tv.push_column("B", DataType::I64, vec![Scalar::I64(4)]);
        let r = run(&model, &tv, 1);
        assert_eq!(out0(&r), &Value::scalar(Scalar::I64(25)));
    }
}
