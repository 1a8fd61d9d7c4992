//! Quickstart: build the paper's Figure 1 model, generate + compile the
//! instrumented simulator, and run it until the overflow is diagnosed.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use accmos::{AccMoS, RunOptions};
use accmos_ir::{ActorKind, DataType, ModelBuilder, Scalar, TestVectors};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure 1 model: two accumulators feeding a sum whose int32
    // output wraps after a long run.
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
    let model = b.build()?;

    // Preprocess -> instrument -> synthesize -> compile (gcc -O3 -fwrapv).
    let sim = AccMoS::new().prepare(&model)?;
    println!(
        "generated + compiled in {:.2?} + {:.2?}",
        sim.codegen_time(),
        sim.compile_time()
    );

    // Constant charging currents; the sum wraps around step 2^31 / 2000.
    let mut tests = TestVectors::new();
    tests.push_column("A", DataType::I32, vec![Scalar::I32(1000)]);
    tests.push_column("B", DataType::I32, vec![Scalar::I32(1000)]);

    let report = sim.run(
        3_000_000,
        &tests,
        &RunOptions { stop_on_diagnostic: true, ..RunOptions::default() },
    )?;
    println!("{report}");
    Ok(())
}
