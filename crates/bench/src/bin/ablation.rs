//! Ablation of the code-generation design choices: what does each piece of
//! simulation-oriented instrumentation cost, and how much does the
//! compiler's optimizer contribute?
//!
//! Matrix: {bare, +coverage, +diagnosis, full} x {-O0, -O3} on one
//! compute-heavy (SPV) and one control-heavy (TWC) benchmark.

use accmos::{AccMoS, CodegenOptions, OptLevel, RunOptions};
use accmos_bench::{arg_u64, record_run};
use accmos_ir::DiagnosticPolicy;
use accmos_testgen::random_tests;
use std::time::Duration;

fn configs() -> Vec<(&'static str, CodegenOptions)> {
    let full = CodegenOptions::accmos();
    let bare = CodegenOptions { instrument: false, ..full.clone() };
    let cov_only = CodegenOptions {
        instrument: true,
        coverage: true,
        policy: DiagnosticPolicy::none(),
        ..full.clone()
    };
    let diag_only = CodegenOptions { instrument: true, coverage: false, ..full.clone() };
    vec![("bare", bare), ("+coverage", cov_only), ("+diagnosis", diag_only), ("full", full)]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps = arg_u64(&args, "--steps", 200_000);
    let seed = arg_u64(&args, "--seed", 2024);

    println!("Instrumentation / optimization ablation ({steps} steps)");
    println!(
        "{:<7} {:<12} {:>10} {:>10} {:>8}",
        "Model", "config", "-O0", "-O3", "O0/O3"
    );
    for name in ["SPV", "TWC"] {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        let tests = random_tests(&pre, 64, seed);
        for (label, codegen) in configs() {
            let mut times: Vec<Duration> = Vec::new();
            for opt in [OptLevel::O0, OptLevel::O3] {
                let sim = AccMoS::new()
                    .with_codegen(codegen.clone())
                    .with_opt(opt)
                    .prepare(&model)
                    .unwrap();
                let r = sim.run(steps, &tests, &RunOptions::default()).unwrap();
                sim.clean();
                let opt_tag = match opt {
                    OptLevel::O0 => "O0",
                    _ => "O3",
                };
                record_run("ablation", name, &format!("{label}-{opt_tag}"), steps, r.wall);
                times.push(r.wall);
            }
            println!(
                "{:<7} {:<12} {:>9.3}s {:>9.3}s {:>7.1}x",
                name,
                label,
                times[0].as_secs_f64(),
                times[1].as_secs_f64(),
                times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9)
            );
        }
    }
    println!("\nReading: the full-instrumentation overhead vs bare code is the cost of");
    println!("the paper's coverage bitmaps + diagnostic calls; O0/O3 shows how much of");
    println!("AccMoS's speed is the C compiler's optimizer (paper §4's pipelining note).");
}
