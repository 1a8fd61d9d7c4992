//! # accmos-codegen
//!
//! The core contribution of the AccMoS paper: **simulation-oriented
//! instrumentation and code generation**. A preprocessed model is turned
//! into a complete, self-contained C simulation program:
//!
//! - every actor is translated from a **code template library** covering
//!   the 58 supported actor kinds (`genCodeFromTemp`);
//! - Algorithm 1 attaches **actor/condition/decision/MC/DC coverage**
//!   instrumentation, **signal-collection** calls (`outputCollect`,
//!   Figure 3), and calls to **dynamically generated diagnostic
//!   functions** (`diagnose_<path>`, Figure 4) selected per actor
//!   type–operator combination;
//! - the code is synthesized into a model system function plus a main
//!   function with a simulation loop, test-case import and result output
//!   (Figure 5).
//!
//! The generated program prints a line-oriented `ACCMOS:` result protocol
//! that `accmos-backend` parses back into an
//! [`accmos_ir::SimulationReport`], making it directly comparable with the
//! interpretive engines.
//!
//! ## Example
//!
//! ```
//! use accmos_codegen::{generate, CodegenOptions};
//! use accmos_ir::{ActorKind, DataType, ModelBuilder, Scalar};
//!
//! let mut b = ModelBuilder::new("Model");
//! b.inport("A", DataType::I32);
//! b.inport("B", DataType::I32);
//! b.actor("Minus", ActorKind::Sum { signs: "+-".into() });
//! b.outport("Out", DataType::I32);
//! b.connect(("A", 0), ("Minus", 0));
//! b.connect(("B", 0), ("Minus", 1));
//! b.wire("Minus", "Out");
//! let pre = accmos_graph::preprocess(&b.build()?)?;
//!
//! let program = generate(&pre, &CodegenOptions::accmos());
//! assert!(program.main_c.contains("diagnose_Model_Minus"));
//! assert!(program.main_c.contains("int main(int argc, char* argv[])"));
//! # Ok::<(), accmos_ir::ModelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cwriter;
mod gen;
mod options;
mod runtime;
mod synthesis;

pub use gen::DiagSite;
pub use options::{CodegenOptions, CustomProbe};
pub use runtime::RUNTIME_HEADER;
pub use synthesis::{generate, GeneratedProgram, PROF_SAMPLE_PERIOD};

#[cfg(test)]
mod tests {
    use super::*;
    use accmos_graph::preprocess;
    use accmos_ir::{
        ActorKind, DataType, DiagnosticKind, LogicOp, ModelBuilder, Scalar, SwitchCriteria,
        SystemKind,
    };

    fn figure1_program(opts: &CodegenOptions) -> GeneratedProgram {
        let mut b = ModelBuilder::new("Model");
        b.inport("A", DataType::I32);
        b.inport("B", DataType::I32);
        b.actor("Minus", ActorKind::Sum { signs: "+-".into() });
        b.outport("Out", DataType::I32);
        b.connect(("A", 0), ("Minus", 0));
        b.connect(("B", 0), ("Minus", 1));
        b.wire("Minus", "Out");
        let pre = preprocess(&b.build().unwrap()).unwrap();
        generate(&pre, opts)
    }

    #[test]
    fn figure4_style_diagnostic_function_generated() {
        let p = figure1_program(&CodegenOptions::accmos());
        let c = &p.main_c;
        // The dynamically generated diagnostic function with the paper's
        // sign-predicate overflow check for a binary signed minus.
        assert!(c.contains("static void diagnose_Model_Minus(int32_t out, int32_t in1, int32_t in2)"), "{c}");
        assert!(
            c.contains("in1 >= 0 && in2 < 0 && out < 0") && c.contains("in1 < 0 && in2 >= 0 && out >= 0"),
            "missing Figure 4 predicates"
        );
        assert!(p.diag_sites.iter().any(|s| s.actor == "Model_Minus"
            && s.kind == DiagnosticKind::WrapOnOverflow));
    }

    #[test]
    fn figure5_structure_present() {
        let p = figure1_program(&CodegenOptions::accmos());
        let c = &p.main_c;
        for needle in [
            "static void Model_Exe(void)",
            "TestCase_Init(",
            "takeTestCase(0)",
            "takeTestCase(1)",
            "recordResult();",
            "outputResult(",
            "/* Simulation Loop of model */",
            "for (uint64_t step = 0; step < total_step; step++)",
            "ACCMOS_COV(accmos_cov_actor",
        ] {
            assert!(c.contains(needle), "missing `{needle}` in:\n{c}");
        }
    }

    #[test]
    fn uninstrumented_rapid_mode_has_no_diagnostics() {
        let p = figure1_program(&CodegenOptions::rapid_accelerator());
        let c = &p.main_c;
        assert!(!c.contains("diagnose_"), "rapid mode must not diagnose");
        assert!(!c.contains("ACCMOS_COV(accmos_cov_actor"), "no coverage in rapid mode");
        assert!(c.contains("accmos_host_exchange"), "rapid mode syncs with the host");
        assert!(p.diag_sites.is_empty());
    }

    #[test]
    fn collect_instrumentation_for_monitored_actor() {
        let mut b = ModelBuilder::new("M");
        b.inport("X", DataType::I32);
        b.actor(
            "Neg",
            accmos_ir::Actor::new(ActorKind::Gain { gain: Scalar::I32(-1) }).monitored(),
        );
        b.outport("Y", DataType::I32);
        b.wire("X", "Neg");
        b.wire("Neg", "Y");
        let pre = preprocess(&b.build().unwrap()).unwrap();
        let p = generate(&pre, &CodegenOptions::accmos());
        assert!(
            p.main_c.contains("outputCollect(\"M_Neg_out\", (const void*)&M_Neg_out, \"i32\", 1);"),
            "{}",
            p.main_c
        );
    }

    /// A switch compiles to its full template even when the analyzer
    /// proves its control constant: both arms and the runtime test stay.
    #[test]
    fn switch_template_carries_condition_coverage() {
        let mut b = ModelBuilder::new("M");
        b.inport("C", DataType::F64);
        b.constant("Hi", Scalar::F64(1.0));
        b.constant("Lo", Scalar::F64(-1.0));
        b.constant("K", Scalar::F64(2.0));
        b.actor("Sw", ActorKind::Switch { criteria: SwitchCriteria::Greater(0.0) });
        b.actor("SwK", ActorKind::Switch { criteria: SwitchCriteria::Greater(0.0) });
        b.outport("Y", DataType::F64);
        b.outport("Z", DataType::F64);
        b.connect(("Hi", 0), ("Sw", 0));
        b.connect(("C", 0), ("Sw", 1));
        b.connect(("Lo", 0), ("Sw", 2));
        b.connect(("Hi", 0), ("SwK", 0));
        b.connect(("K", 0), ("SwK", 1));
        b.connect(("Lo", 0), ("SwK", 2));
        b.wire("Sw", "Y");
        b.wire("SwK", "Z");
        let pre = preprocess(&b.build().unwrap()).unwrap();
        let p = generate(&pre, &CodegenOptions::accmos());
        let c = &p.main_c;
        assert!(c.contains("ACCMOS_COV(accmos_cov_cond"));
        assert!(c.contains("> 0.0"));
        assert!(c.contains("if ((double)(M_K_out) > 0.0) {"), "{c}");
        assert!(c.contains("M_SwK_out = M_Hi_out;") && c.contains("M_SwK_out = M_Lo_out;"), "{c}");
    }

    #[test]
    fn logical_gate_gets_decision_and_mcdc_instrumentation() {
        let mut b = ModelBuilder::new("M");
        b.inport("A", DataType::Bool);
        b.inport("B", DataType::Bool);
        b.actor("And", ActorKind::Logical { op: LogicOp::And, inputs: 2 });
        b.outport("Y", DataType::Bool);
        b.connect(("A", 0), ("And", 0));
        b.connect(("B", 0), ("And", 1));
        b.wire("And", "Y");
        let pre = preprocess(&b.build().unwrap()).unwrap();
        let p = generate(&pre, &CodegenOptions::accmos());
        assert!(p.main_c.contains("ACCMOS_COV(accmos_cov_dec"));
        assert!(p.main_c.contains("ACCMOS_COV(accmos_cov_mcdc"));
    }

    #[test]
    fn enabled_subsystem_generates_guards() {
        let mut b = ModelBuilder::new("M");
        b.inport("En", DataType::Bool);
        b.subsystem("Sub", SystemKind::Enabled, |s| {
            s.actor("Cnt", ActorKind::Counter { limit: 9 });
            s.outport("y", DataType::I32);
            s.wire("Cnt", "y");
        });
        b.outport("Y", DataType::I32);
        b.wire_to("En", "Sub", 0);
        b.wire("Sub", "Y");
        let pre = preprocess(&b.build().unwrap()).unwrap();
        let p = generate(&pre, &CodegenOptions::accmos());
        let c = &p.main_c;
        assert!(c.contains("static inline int g0_active(void)"), "{c}");
        assert!(c.contains("if (g0_active()) {"));
        assert!(c.contains("g0_prev ="));

        // Enabled by a constant `true`: the guard still tests the control
        // signal at run time.
        let mut b = ModelBuilder::new("M");
        b.constant("On", Scalar::Bool(true));
        b.subsystem("Sub", SystemKind::Enabled, |s| {
            s.actor("Cnt", ActorKind::Counter { limit: 9 });
            s.outport("y", DataType::I32);
            s.wire("Cnt", "y");
        });
        b.outport("Y", DataType::I32);
        b.wire_to("On", "Sub", 0);
        b.wire("Sub", "Y");
        let pre = preprocess(&b.build().unwrap()).unwrap();
        let c = generate(&pre, &CodegenOptions::accmos()).main_c;
        assert!(c.contains("static inline int g0_active(void) { return (M_On_out != 0); }"), "{c}");
    }

    #[test]
    fn custom_probe_emitted() {
        let mut opts = CodegenOptions::accmos();
        opts.custom.push(CustomProbe {
            name: "spike".into(),
            actor: "Model_Minus".into(),
            condition_c: "value > 1000 || value < -1000".into(),
        });
        let p = figure1_program(&opts);
        assert!(p.main_c.contains("accmos_custom_hit(0)"));
        assert!(p.main_c.contains("value > 1000 || value < -1000"));
        assert_eq!(p.custom_sites, vec![("spike".to_string(), "Model_Minus".to_string())]);
    }

    #[test]
    fn files_lists_header_and_main() {
        let p = figure1_program(&CodegenOptions::accmos());
        let files = p.files();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].0, "accmos_rt.h");
        assert_eq!(files[1].0, "Model.c");
        assert!(files[0].1.contains("ACCMOS_RT_H"));
    }

    #[test]
    fn inport_dtypes_reported_in_order() {
        let p = figure1_program(&CodegenOptions::accmos());
        assert_eq!(p.inport_dtypes, vec![DataType::I32, DataType::I32]);
    }
}
