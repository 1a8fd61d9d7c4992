//! Reproduces the **§1 / Figure 1 motivating experiment**: the sample
//! accumulate-and-combine model overflows after a long run; SSE takes
//! 184.74 s to find it, hand-written C 0.37 s (~500x). Here: the SSE
//! stand-in vs the AccMoS-generated simulator on the same model.

use accmos_bench::detection_times;
use accmos_ir::{DataType, Scalar, TestVectors};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    accmos_bench::check_flags(&args, &["--rate"]);
    let rate = accmos_bench::arg_u64(&args, "--rate", 500);

    let model = accmos_models::figure1();
    // Constant inflow: the int32 sum wraps after ~2^31 / (2*rate) steps.
    let mut tests = TestVectors::new();
    tests.push_column("A", DataType::I32, vec![Scalar::I32(rate as i32)]);
    tests.push_column("B", DataType::I32, vec![Scalar::I32(rate as i32)]);
    let horizon = (i32::MAX as u64) / rate + 16;

    let (acc_wall, acc_step, sse_wall, sse_step) =
        detection_times(&model, &tests, horizon);
    println!("Figure 1 motivating model: wrap on overflow after long-run accumulation");
    println!("  overflow at step {acc_step:?} (both engines agree: {sse_step:?})");
    println!(
        "  AccMoS: {:.3}s | SSE: {:.3}s | speedup {:.1}x",
        acc_wall.as_secs_f64(),
        sse_wall.as_secs_f64(),
        sse_wall.as_secs_f64() / acc_wall.as_secs_f64().max(1e-9)
    );
    println!("(paper: 0.37 s vs 184.74 s, ~500x)");
    assert_eq!(acc_step, sse_step);
}
