//! Custom signal diagnosis (paper §3.2B): user-defined predicates over an
//! actor's output, instrumented into the generated code alongside the
//! built-in diagnoses.
//!
//! ```sh
//! cargo run --release --example custom_diagnosis
//! ```

use accmos::{AccMoS, CodegenOptions, CustomProbe, RunOptions};
use accmos_ir::{ActorKind, DataType, ModelBuilder, Scalar, TestVectors};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A sensor pipeline whose output the user wants watched for spikes.
    let mut b = ModelBuilder::new("Plant");
    b.inport("Sensor", DataType::I32);
    b.actor("Filter", ActorKind::UnitDelay { init: Scalar::I32(0) });
    b.actor("Trend", ActorKind::DiscreteDerivative);
    b.outport("Out", DataType::I32);
    b.wire("Sensor", "Filter");
    b.wire("Filter", "Trend");
    b.wire("Trend", "Out");
    let model = b.build()?;

    // "Detecting sudden signal changes, monitoring the output value of a
    // specified actor" — exactly the paper's custom-diagnosis use case.
    let mut codegen = CodegenOptions::accmos();
    codegen.custom.push(CustomProbe {
        name: "spike".into(),
        actor: "Plant_Trend".into(),
        condition_c: "value > 500 || value < -500".into(),
    });
    codegen.custom.push(CustomProbe {
        name: "stuck_high".into(),
        actor: "Plant_Filter".into(),
        condition_c: "value > 900".into(),
    });

    let sim = AccMoS::new().with_codegen(codegen).prepare(&model)?;
    let mut tests = TestVectors::new();
    tests.push_column(
        "Sensor",
        DataType::I32,
        vec![
            Scalar::I32(10),
            Scalar::I32(12),
            Scalar::I32(950), // spike + stuck-high
            Scalar::I32(11),
            Scalar::I32(9),
        ],
    );
    let report = sim.run(50, &tests, &RunOptions::default())?;

    println!("{report}");
    for probe in &report.custom {
        println!(
            "custom probe `{}` on {}: first at step {}, {} hits",
            probe.name, probe.actor, probe.first_step, probe.count
        );
    }
    assert!(!report.custom.is_empty(), "the spike should have been caught");
    Ok(())
}
