//! The paper's §4 error-diagnosis case study: two faults injected into the
//! CSEV electric-vehicle charging model, detected by the compiled AccMoS
//! simulator orders of magnitude faster than the interpretive engine.
//!
//! ```sh
//! cargo run --release --example overflow_detection
//! ```

use accmos::{AccMoS, Engine as _, NormalEngine, RunOptions, SimOptions};
use accmos_models::{csev_variant, CsevFault};
use accmos_testgen::random_tests;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (label, fault, horizon) in [
        ("wrap on overflow in the `quantity` data store", CsevFault::Quantity, 3_000_000u64),
        ("downcast in the charging-power product", CsevFault::Power, 100_000),
    ] {
        println!("== fault: {label} ==");
        let model = csev_variant(fault);
        let pre = accmos::preprocess(&model)?;
        let tests = random_tests(&pre, 64, 42);

        let sim = AccMoS::new().prepare(&model)?;
        let compiled = sim.run(
            horizon,
            &tests,
            &RunOptions { stop_on_diagnostic: true, ..RunOptions::default() },
        )?;

        let interpreted = NormalEngine::new().run(
            &pre,
            &tests,
            &SimOptions::steps(horizon).stopping_on_diagnostic(),
        );

        for d in &compiled.diagnostics {
            println!("  {d}");
        }
        println!(
            "  AccMoS {:.3}s vs SSE {:.3}s  ({:.1}x faster to the first diagnosis)",
            compiled.wall.as_secs_f64(),
            interpreted.wall.as_secs_f64(),
            interpreted.wall.as_secs_f64() / compiled.wall.as_secs_f64().max(1e-9),
        );
    }
    Ok(())
}
